#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rt-write-128k --seed 1 --seconds 20 --trace 0

It builds perfbench (a Go module of its own that imports the repository's
packages) into .bench_build/ with the Go build cache, temporary files and
tool configuration kept under that directory too, then runs it with the
given arguments. With --trace 1 the spans go to
.bench_build/spans/<workload>.json. The benchmark's output is passed
through; its last line is the JSON result. The exit code is the
benchmark's, or 1 when the build fails or the run overruns.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("HOME", "home")):
        env[key] = os.path.join(OUT, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOMODCACHE"] = os.path.join(OUT, "gopath", "pkg", "mod")
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off",
               CGO_ENABLED="0")
    return env


def main():
    args = sys.argv[1:]
    env = go_env()
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] and "--workload" in args:
        spans = os.path.join(OUT, "spans")
        os.makedirs(spans, exist_ok=True)
        workload = args[args.index("--workload") + 1]
        args += ["--spans", os.path.join(spans, os.path.basename(workload) + ".json")]
    try:
        return subprocess.run([binary] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
