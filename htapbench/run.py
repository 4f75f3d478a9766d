#!/usr/bin/env python3
"""Builds and runs the olxp end-to-end benchmark (see README.md).

Usage, from the root of a checkout:

    python3 htapbench/run.py --workload subench-htap --seed 1 --seconds 10 --trace 0
    python3 htapbench/run.py --selftest

The engine and the benchmark are compiled from the checkout's sources into
the build directory ($CARGO_TARGET_DIR when set, else .bench_build), then
the benchmark binary runs with the same arguments. Build output goes to
stderr; the binary's last stdout line is the JSON result. Every WAL
directory a run creates lives under <build dir>/work-<pid> and is removed
here when the binary exits, whether it passed, failed or crashed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "htapbench"))


def environment(out):
    """The environment of build and run: temporary files stay inside the
    build directory, and the engine's OLXP_EXEC_THREADS override is dropped
    so that each workload keeps the lane count it defines."""
    env = dict(os.environ)
    env.pop("OLXP_EXEC_THREADS", None)
    env["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build(out, env):
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("htapbench: build step failed: %s" % e, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("htapbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        print("htapbench: no engine sources beside %s" % HERE, file=sys.stderr)
        return 2
    env = environment(out)
    if not build(out, env):
        return 2
    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [os.path.join(out, "htapbench"), "--work-dir", work,
           "--spans-dir", os.path.join(out, "spans")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("htapbench: run exceeded %d s, killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
