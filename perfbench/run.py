#!/usr/bin/env python3
"""Build and run the ftnet benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-replay --seed 1 --seconds 25 --trace 0

The OCaml benchmark (perfbench/ftbench.ml) is built from source with dune
into .bench_build/ and run once; its stdout is passed through, and its last
line is the JSON result.  The script also keeps each (workload, size, seed)
output digest under .bench_build/perfbench/, keyed by the executable's own
digest, and marks the result incorrect when a later run of the same build,
untraced or traced, disagrees with it.

Exits non-zero without printing a result when the checkout holds no
ftcsn sources, when the build fails, or when the run fails or times out.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "ftbench.exe")
STATE_DIR = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["traffic-churn", "traffic-calls", "serve-replay", "survive-curve"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, env, timeout, stderr):
    """Run cmd in its own process group and wait for it; on timeout kill
    the whole group (dune's compiler children too) before returning."""
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    return p.returncode, out


def build(env):
    for needed in ("dune-project", os.path.join("lib", "des", "dune"),
                   os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die("no ftcsn sources here (missing %s)" % needed, 2)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet",
           "./perfbench/ftbench.exe"]
    try:
        code, out = run_group(cmd, env, BUILD_TIMEOUT_S, subprocess.STDOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 3)
    if code != 0:
        sys.stderr.write(out)
        die("build failed", 3)


def check_digests(lines, key):
    """Compare this run's digest lines with the first run of the same key."""
    digests = [l for l in lines if l.startswith("digest ")]
    if not digests:
        return "no digest line"
    path = os.path.join(STATE_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known and known[key] != digests:
        return "digest differs from an earlier run of %s" % key
    known[key] = digests
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long sizes that still run every check")
    args = ap.parse_args()

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache"))
    env["TMPDIR"] = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    build(env)
    os.makedirs(STATE_DIR, exist_ok=True)

    size = "smoke" if args.smoke else "full"
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans", os.path.join(
            STATE_DIR, "spans-%s-%s-%d.jsonl" % (args.workload, size, args.seed))]
    try:
        code, out = run_group(cmd, env, RUN_TIMEOUT_S, None)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("run failed: %s" % e, 4)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        die("run exited with %d" % code, 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        die("last line is not a JSON result", 4)

    with open(EXE, "rb") as f:
        exe = hashlib.md5(f.read()).hexdigest()
    problem = check_digests(
        lines, "%s/%s/%d/%s" % (args.workload, size, args.seed, exe))
    if problem:
        print("perfbench: " + problem, file=sys.stderr)
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
