"""Record the correctness gate's reference outputs.

    python3 perfbench/record_references.py

Runs every recorded input of each workload once and rewrites
references.json.  Run it only on a commit whose outputs define correct
behaviour; a change that alters outputs must not re-record them.
"""

import json
import os
import shutil

from run import THREAD_ENV

os.environ.update(THREAD_ENV)      # before numpy is imported

import gate  # noqa: E402
import workloads  # noqa: E402


def main():
    refs = {}
    tmp = workloads.ROOT / ".perfbench_out" / "record"
    for name in workloads.WORKLOADS:
        refs[name] = {}
        for i in range(gate.N_INPUTS):
            recording = {}
            rnd = workloads.run_round(name, i, tmp, recording=recording)
            shutil.rmtree(tmp, ignore_errors=True)
            if rnd.failed:
                raise SystemExit(f"{name} input {i}: {rnd.failures}")
            refs[name][str(i)] = recording
            print(f"{name} input {i}: recorded", flush=True)
    with open(gate.REFERENCE_FILE, "w") as f:
        json.dump(refs, f, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
