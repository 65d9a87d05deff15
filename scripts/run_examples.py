#!/usr/bin/env python3
"""Replay every worked example through the CLI and diff against goldens.

Each entry in manifest.json names a job file under jobs/ and a golden
output under golden/.  The runner invokes the CLI in process with
--input/--output, then compares the produced file byte for byte with the
stored golden.  Any exit-code or byte mismatch fails the run.

Usage:
    python scripts/run_examples.py             # verify all examples
    python scripts/run_examples.py --only NAME # verify one example
    python scripts/run_examples.py --regenerate  # rewrite the goldens
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS_DIR.parent / "src"))

from qsection.cli import main  # noqa: E402


def load_manifest():
    with open(SCRIPTS_DIR / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["examples"]


def run_one(entry, regenerate):
    name = entry["name"]
    job = SCRIPTS_DIR / "jobs" / f"{name}.json"
    golden = SCRIPTS_DIR / "golden" / f"{name}.json"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        argv = entry["argv"] + ["--input", str(job), "--output", str(out)]
        code = main(argv)
        if code != 0:
            return f"FAIL {name}: exit code {code}"
        produced = out.read_bytes()
    if regenerate:
        golden.write_bytes(produced)
        return f"wrote {name}"
    if not golden.exists():
        return f"FAIL {name}: golden file missing"
    if produced != golden.read_bytes():
        return f"FAIL {name}: output differs from golden"
    return f"ok {name}"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME", help="run a single example")
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help="rewrite golden files instead of comparing",
    )
    return parser.parse_args(argv)


def run(argv=None):
    args = parse_args(argv)
    entries = load_manifest()
    if args.only is not None:
        entries = [e for e in entries if e["name"] == args.only]
        if not entries:
            print(f"no example named {args.only!r}", file=sys.stderr)
            return 2
    failures = 0
    for entry in entries:
        line = run_one(entry, args.regenerate)
        print(line)
        failures += line.startswith("FAIL")
    if failures:
        print(f"{failures} example(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
