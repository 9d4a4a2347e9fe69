"""Regenerate the stored predictors that the loop, plan and batched workloads load.

    python3 perfbench/make_model.py

Trains on the bundled quickstart manifest (the same call as
`viewsched train --manifest builtin:manifest_quickstart --out FILE`), writes
`perfbench/data/quickstart_models.json` and records its SHA-256 beside it.
Set-up refuses a model file whose SHA-256 differs from the recorded one, so a
change to training changes these workloads' inputs only when this is rerun.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from viewsched.cli import load_manifest, train_models  # noqa: E402

from workloads import MANIFEST, MODEL_FILE, MODEL_SHA_FILE  # noqa: E402


def main() -> int:
    models, info = train_models(load_manifest(MANIFEST))
    models.save(str(MODEL_FILE), training_info=info)
    digest = hashlib.sha256(MODEL_FILE.read_bytes()).hexdigest()
    MODEL_SHA_FILE.write_text(f"{digest}  {MODEL_FILE.name}\n", encoding="utf-8")
    print(digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
