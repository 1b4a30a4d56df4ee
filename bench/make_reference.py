"""Write the reference outputs that every benchmark run checks against:
the reference requests of each workload at the default seed.

    python3 bench/make_reference.py

Regenerate only when an intended change of results is reviewed; a change of
summation order alone stays within the stated tolerance.
"""
import json

import run


def main() -> None:
    run.import_fpds()
    import checks
    from workloads import WORKLOADS
    for name in WORKLOADS:
        with open(checks.reference_path(name), "w") as fh:
            json.dump(run.reference_records(name), fh, indent=1)
            fh.write("\n")
        print(f"wrote {checks.reference_path(name)}")


if __name__ == "__main__":
    main()
