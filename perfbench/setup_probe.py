"""Set-up probe: start, import the package and build one workload's inputs.

``run.py`` times this script from spawn to exit several times and reports
the median as ``setup_s``: interpreter start, the oblique_mv / numpy /
scipy / jsonschema imports, and system and config construction.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workloads.WORKLOADS[args.workload].build(args.seed, args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
