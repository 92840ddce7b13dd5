"""Run one csfq3d CLI command in this process under the benchmark tracer and
write the tracer's counters as JSON.

usage: python3 bench/traced_cli.py STATS_JSON CLI_ARGUMENT...

csfq3d must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).  The exit code is the command's.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from csfq3d import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    stats_path.write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
