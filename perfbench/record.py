"""Write perfbench/baseline.json: where the benchmark was measured, the
answer digests pinned for the default seed, and one run of every workload on
a seed the benchmark was not tuned on.

    python3 perfbench/record.py

Run it from a git checkout when the program's answers change on purpose or
the benchmark changes; it takes a few minutes.
"""

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

UNSEEN_SEED = 8191

# how the workloads map to the ROADMAP baselines W1-W4; why each was chosen
# is in BENCHMARK.json
ROADMAP_MAP = {
    "verify_gf": "W3 (differential_suite) with one instance per op; its "
                 "7-variable degree-5 tail has the shape of W2, which is too "
                 "long to repeat 22 times per check",
    "doubling_family": "W4, without the four three-factor instances that "
                       "need 0.4-0.9 GB each",
    "cli_qq": "W1 and W1q in kind (a CLI connected sum, over QQ) at 4-5 "
              "variables; W1q itself takes 30 s, too long to repeat",
}


def blas_info():
    import numpy

    config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "name": config.get("name"),
        "version": config.get("version"),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads": None,
    }
    # the thread count the bundled OpenBLAS chose; read, never set
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                return info
    return info


def provenance():
    import numpy

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip()
    return {
        "git_sha": sha,
        "worktree_clean": not dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas_info(),
    }


def run_workload(name, seed):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{name} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if result["failed"]:
        sys.exit(f"{name} seed {seed}: {result['failed']} op(s) failed")
    digest = next(line.split()[2] for line in lines
                  if line.startswith(f"{name} answer_digest "))
    notes = [line for line in lines[:-1] if "beyond" in line or "cycle" in line]
    return result, digest, notes


def main():
    digests, unseen = {}, {}
    for name in run.WORKLOAD_NAMES:
        _, digests[name], _ = run_workload(name, run.DEFAULT_SEED)
        result, _, notes = run_workload(name, UNSEEN_SEED)
        unseen[name] = {
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "notes": notes,
        }
        print(name, digests[name], unseen[name]["metrics"], flush=True)
    baseline = {
        "provenance": provenance(),
        "default_seed": run.DEFAULT_SEED,
        "answer_digest": digests,
        "roadmap_workloads": ROADMAP_MAP,
        "unseen_seed": {"seed": UNSEEN_SEED, "runs": unseen},
    }
    with open(run.BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
