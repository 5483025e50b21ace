"""Regenerate the reference minimal frontier that particle_band is checked against.

The reference is today's ``picard_minimal`` at the acceptance configuration
(band density, 100k paths, 500 steps on [0, 1/4], tolerance 1e-3, seed 2026).
Run from the repository root:

    python3 benchmarks/make_reference.py
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stefanlab.solver import picard_minimal  # noqa: E402

from workloads import (  # noqa: E402
    ACCEPTANCE_SEED,
    FULL,
    REFERENCE_CSV,
    band_density,
    picard_config,
)


def main():
    res = picard_minimal(band_density(), picard_config(ACCEPTANCE_SEED, FULL))
    if not res.converged:
        raise SystemExit(f"picard_minimal did not converge in {res.iterations} iterations")
    REFERENCE_CSV.parent.mkdir(exist_ok=True)
    res.frontier.write_csv(REFERENCE_CSV)
    print(f"wrote {REFERENCE_CSV} ({res.iterations} iterations, "
          f"Lambda_T = {res.frontier.lam[-1]:.6f})")


if __name__ == "__main__":
    main()
