"""Traced gateway launcher: install the layer wrappers, then serve.

Takes a spans file path followed by ``repro`` CLI arguments (``serve
...``).  The gateway runs in this process with every layer of
:data:`tracer.LAYERS` wrapped; when it shuts down the originals are put
back and the spans are written to the file.

    python3 perfbench/serve_traced.py <spans.json> serve --scenario paper ...
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import LAYERS, Tracer  # noqa: E402


def main(argv: list) -> int:
    from repro.cli import main as repro_main

    with Tracer(LAYERS) as tracer:
        code = repro_main(argv[1:])
    Path(argv[0]).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
