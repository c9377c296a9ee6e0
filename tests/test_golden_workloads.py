"""The CLI's bytes on every benchmark op, against tests/golden_workloads.json.

make_golden_workloads.py writes the file and says when to run it.
"""

import json
import warnings

from make_golden_workloads import GOLDEN, SEEDS, generated_argv, outcome


def test_workload_bytes_match_the_golden_file():
    # every listed argv must still be generated and give the same exit code
    # and streams; an argv the file does not list, such as one a benchmark
    # change adds, is reported and passes until the file is written again
    golden = json.loads(GOLDEN.read_text())
    generated = generated_argv()
    missing = sorted(set(golden) - set(generated))
    assert not missing, "listed argv no longer generated at seeds %s: %s" % (SEEDS, missing)
    changed = [argv for key, argv in generated.items()
               if key in golden and outcome(argv) != golden[key]]
    assert not changed, "%d argv changed bytes, first: %s" % (len(changed), changed[0])
    unlisted = [argv for key, argv in generated.items() if key not in golden]
    if unlisted:
        warnings.warn("%d generated argv are not in %s, first: %s"
                      % (len(unlisted), GOLDEN.name, unlisted[0]))
