"""Write tests/golden_workloads.json: the bytes the CLI gives on every
benchmark op.

    PYTHONPATH=src python3 tests/make_golden_workloads.py

For each distinct argv that bench/workloads.py generates at the seeds in
SEEDS, the file maps the sha256 of the argv's JSON (json.dumps of the argv
as a list) to the exit code of cli.main and the sha256 of its stdout and of
its stderr, each run in-process.  Run it only in a change that means to
change those bytes or to add argv, and list each changed argv in CHANGES.md
with the reason.  test_golden_workloads.py checks the file.
"""

import hashlib
import importlib.util
import io
import json
import sys

from pathlib import Path

from cauchyreal import cli

SEEDS = (3, 5, 41)
GOLDEN = Path(__file__).with_name("golden_workloads.json")
_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _workloads():
    """bench/workloads.py, read from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("golden_bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def generated_argv():
    """{sha256 of the argv's JSON: argv} over every workload at every seed."""
    workloads = _workloads()
    found = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.generate(workload, seed):
                argv = list(op.argv)
                found[_sha(json.dumps(argv))] = argv
    return found


def outcome(argv):
    """{"code", "stdout", "stderr"}: main's exit code on argv and the
    sha256 of each stream."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out, err)
    return {"code": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


def main():
    records = {key: outcome(argv) for key, argv in sorted(generated_argv().items())}
    lines = ["  %s: %s" % (json.dumps(key), json.dumps(record, sort_keys=True))
             for key, record in records.items()]
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(lines))
    print("wrote %d argv to %s" % (len(records), GOLDEN))


if __name__ == "__main__":
    main()
