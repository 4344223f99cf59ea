"""Write perfbench/reference.json: each item's expected verdict.

    python3 perfbench/record_reference.py

For every item of every workload it records the exit status, the sorted
failing (report title, check name) pairs and the sha256 of the
structured output at the scenario's own seed, and whether that output is
the same at other `--seed` values (`seed_free`).  The committed file was
recorded from the engine this benchmark was written against; record it
again only when a change to the engine's output is intended.
"""

import hashlib
import json
import os
import sys

import run as bench


def main():
    os.chdir(bench.ROOT)
    sys.path.insert(0, str(bench.SRC))
    cli = bench.import_engine()["cli"]
    reference = {}
    for items in bench.WORKLOADS.values():
        for argv in items:
            _, status, out, err = bench.run_item(cli, list(argv))
            if "Traceback" in err:
                raise SystemExit("%s raised:\n%s" % (bench.item_id(argv), err))
            digests = {hashlib.sha256(bench.run_item(cli, bench.engine_argv(argv, s))[2]
                                      .encode()).hexdigest() for s in (1, 2)}
            digest = hashlib.sha256(out.encode()).hexdigest()
            reference[bench.item_id(argv)] = {
                "status": status,
                "failing": bench.failing_checks(out),
                "sha256": digest,
                "seed_free": digests == {digest},
            }
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
