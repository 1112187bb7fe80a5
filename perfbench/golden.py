"""Reference digests of the outputs the benchmark checks.

Run from the checkout root to rewrite ``perfbench/golden.json``:

    python3 perfbench/golden.py

The committed file was made at the commit that introduced the benchmark.
The library promises byte-identical ``rows`` and tables, so the file is not
regenerated when the code changes; a differing digest is a failed check.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import inputs


def rows_digest(payload: dict) -> str:
    """SHA-256 of the ``rows`` of a JSON report, ``meta`` left out."""
    canonical = json.dumps(payload["rows"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen_key(args) -> str:
    return " ".join(args)


def main() -> int:
    sys.path.insert(0, "src")
    import polycauchy.cli as cli
    from polycauchy.verify import GridConfig, catalog_ids, run_suite

    work = Path(".perfbench_work")
    work.mkdir(exist_ok=True)
    try:
        out = work / "verify.json"
        if cli.main(["verify", "--format", "json", "--output", str(out)]) != 0:
            raise SystemExit("verify reported failures; no golden digests written")
        golden = {"verify_rows": rows_digest(json.loads(out.read_text(encoding="utf-8")))}
        golden["identity_checks"] = {
            identity: run_suite(GridConfig(identities=(identity,))).total
            for identity in catalog_ids()
        }
        golden["gen"] = {}
        for args in inputs.all_table_jobs():
            out = work / "gen.json"
            argv = ["gen", *args, "--n-max", str(inputs.TABLES_N_MAX), "--format", "json",
                    "--output", str(out)]
            if cli.main(argv) != 0:
                raise SystemExit(f"gen {gen_key(args)} failed")
            golden["gen"][gen_key(args)] = file_digest(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    target = Path(__file__).with_name("golden.json")
    target.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
