"""One traced `latred` CLI request: python3 perfbench/cli_child.py SPAN_DIR OP_ID VERB...

Installs the layer wrappers, runs the CLI on the remaining arguments with
stdin and stdout untouched, writes the spans to SPAN_DIR and exits with the
CLI's own exit code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

import latred.cli  # noqa: E402


def main():
    span_dir, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    tracer.active = True
    try:
        latred.cli.main(args, prog_name="latred")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.active = False
    sys.stdout.flush()
    tracer.write(span_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
