"""A fresh Python process that imports growthlab.cli once and forks one
child per growthlab command line.

Usage: python3 perfbench/worker.py <trace 0|1>

growthlab must be importable (run.py puts the checkout's src on
PYTHONPATH).  The worker times the import of growthlab.cli and prints
{"setup_s": ...} as one line on stdout.  It then reads requests from
stdin, one JSON object a line:

  {"argv": [...], "stdout": path, "stderr": path, "result": path, "timeout": s}

and runs each in a child forked from the state just after the import.
growthlab has run none of its code at that point, so every command line
starts with cold caches, as a command-line user's does, but without
paying for a new interpreter and a new import each time.

The child sends growthlab's stdout and stderr to the given files and
writes its timing to the result file: op_s is the call into
growthlab.cli.main up to its return and the flush of its output.  With
trace 1 the child wraps the layers first (see tracing.py) and writes
the spans too.  The worker waits for the child, kills it past the
timeout, and answers each request with one line {"status", "rss_mb",
"cpu_s"} read with os.wait4.  It exits at the end of its input.
"""

import json
import os
import signal
import sys
import time
import traceback

#: exit code reported when main raises instead of returning one
INTERNAL_ERROR = 70


def _redirect(fd: int, path: str, flags: int) -> None:
    target = os.open(path, flags, 0o644)
    os.dup2(target, fd)
    os.close(target)


def _child(cli, request: dict, trace: bool) -> None:
    """Run one command line in this forked process and write its result."""
    _redirect(0, os.devnull, os.O_RDONLY)
    _redirect(1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    _redirect(2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    recorder = None
    absent: list[str] = []
    if trace:
        import tracing

        recorder = tracing.Recorder()
        absent = tracing.install(recorder)
    argv = request["argv"]
    started = time.perf_counter()
    try:
        if recorder is None:
            code = cli.main(argv)
        else:
            code = recorder.call(tracing.ROOT, None, cli.main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        code = INTERNAL_ERROR
    sys.stdout.flush()
    op_s = time.perf_counter() - started
    result = {"exit": code, "op_s": op_s}
    if recorder is not None:
        result["spans"] = recorder.spans
        result["absent"] = absent
    with open(request["result"], "w") as out:
        json.dump(result, out)
    sys.stderr.flush()


def _wait(pid: int, timeout: float):
    """Wait for the child, killing it past the timeout."""
    deadline = time.monotonic() + timeout
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(0.005)


def main() -> None:
    trace = sys.argv[1] == "1"
    started = time.perf_counter()
    import growthlab.cli as cli

    setup_s = time.perf_counter() - started
    print(json.dumps({"setup_s": setup_s}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = INTERNAL_ERROR
            try:
                _child(cli, request, trace)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        status, usage = _wait(pid, request["timeout"])
        reply = {
            "status": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
