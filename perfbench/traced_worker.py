"""Run ``iofootprint`` commands in-process with layer spans installed.

Reads one JSON argument list per line from standard input, runs it through
``iofootprint.cli.run_command`` with its stdout captured, and answers with
one JSON line: exit code, captured stdout, command time and the per-layer
span summary. The first line it writes reports how long
``import iofootprint.cli`` took in this process and what one span costs.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
import iofootprint.cli as cli  # noqa: E402

import_s = time.perf_counter() - start

from perfbench.tracing import Tracer, instrument, span_cost_s, summarize  # noqa: E402


def main() -> None:
    replies = sys.stdout  # commands write to a StringIO put in its place
    replies.write(json.dumps({"import_s": import_s, "span_cost_s": span_cost_s()}) + "\n")
    replies.flush()
    tracer = Tracer()
    with instrument(tracer):
        for line in sys.stdin:
            argv = json.loads(line)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                begin = time.perf_counter()
                code = cli.run_command(argv)
                command_s = time.perf_counter() - begin
            replies.write(json.dumps({
                "code": code, "stdout": out.getvalue(),
                "command_s": command_s, **summarize(tracer.take()),
            }) + "\n")
            replies.flush()


if __name__ == "__main__":
    main()
