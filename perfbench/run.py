#!/usr/bin/env python3
"""Build and run the end-to-end roundtrip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds a
Release tree of the library plus the benchmark program under
$CARGO_TARGET_DIR (default .bench_build)/perfbench; later calls rebuild
incrementally. The program's stdout is passed through; its last line is
the JSON result. Without the library sources next to this directory the
script exits nonzero and prints no result.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s once built; the first run may also build.
RUN_TIMEOUT_S = 170.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the library sources and this benchmark: identifies the
    measured code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_e2e", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload or --smoke is required")
    if not (ROOT / "src" / "dfft" / "fft3d.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfbench"
    build(build_dir)

    # The daemon's socket lives in the build tree; a relative path keeps
    # it under the AF_UNIX length limit wherever the checkout is.
    sock = build_dir / f"pb-{os.getpid()}.sock"
    cmd = [str(build_dir / "perfbench_e2e"),
           "--socket", os.path.relpath(sock, ROOT),
           "--commit", commit(), "--src-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = build_dir / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out", str(traces /
                                       f"{args.workload}-seed{args.seed}.csv")]
    budget = 600.0 if args.smoke else RUN_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {budget:.0f} s", code=3)
    finally:
        sock.unlink(missing_ok=True)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
