#!/usr/bin/env python3
"""Builds xlp_e2e from this checkout's sources, then runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--out DIR]

Run it from the repository root. The build (Release, via bench/e2e/
CMakeLists.txt) and the benchmark's working files go under
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes to
stderr so the last line of stdout stays the benchmark's JSON result; the
exit code is the benchmark's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = build_root / "xlp_e2e"
    jobs = str(min(4, os.cpu_count() or 1))

    if not (build / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(here), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return 1
    if subprocess.run(["cmake", "--build", str(build), "--target", "xlp_e2e",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return 1

    command = [str(build / "xlp_e2e"), *sys.argv[1:],
               "--work-dir", str(build_root / "e2e-work")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
