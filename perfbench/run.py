#!/usr/bin/env python3
"""Build the PIBE benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

The benchmark program and the repository's libraries are compiled (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is not
set, both relative to the checkout root. Its standard output is
passed through; its last line is the JSON result. Traced runs write
their Chrome trace and self-time table next to the build. Exits non-zero
without a result when the sources are missing or the build fails.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def provenance():
    """git sha of the checkout if it is a repository, else a digest of src/."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                return "git:" + open(path).read().strip()[:12]
        return "git:" + ref[:12]
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src:" + digest.hexdigest()[:12]


def build(build_dir, env):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PIBE sources (src/) next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Temporary files of the compiler and the benchmark stay inside the
    # checkout too.
    tmp = os.path.join(ROOT, target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build(build_dir, env)
    # Relative, so the daemon's unix socket path stays short.
    out_dir = os.path.relpath(os.path.join(ROOT, target, "perfbench-out"),
                              ROOT)
    os.makedirs(os.path.join(ROOT, out_dir), exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--out-dir", out_dir, "--provenance", provenance()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
