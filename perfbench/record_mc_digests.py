"""Record the mc_paths known answers: the digest of every mc-verify report.

    PYTHONPATH=src python3 perfbench/record_mc_digests.py

Rewrites perfbench/mc_digests.json.  Run it only to re-pin the answers
after a deliberate change to the Monte Carlo output, and say so.  Every
recorded run must exit 0, i.e. pass all its z-tests.
"""

import json
import sys

import workloads as w


def main() -> int:
    digests = {}
    for mc_seed in w.MC_SEEDS:
        for process, d in w.MC_PROCESSES:
            argv = w.mc_argv(process, d, mc_seed)
            code, text = w.run_cli(argv)
            if code != 0:
                print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
                return 1
            digests[" ".join(argv)] = w.canonical_digest(text)
    w.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
