"""Regenerate bench/reference_spectra.json.

    python3 bench/make_references.py

Computes the lowest four eigenvalues for every (lattice, mass^2, lambda)
point that the spectrum and multiscale seeds can draw, through
`wavefield hamiltonian`, and stores them with full float64 digits.  The
benchmark checks each job against these within jobs.SPECTRUM_RTOL, so a
change that only moves the last bits (another eigensolver, symmetry
sectors) still passes and a wrong spectrum does not.  Regenerate only
when the physics is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import jobs  # noqa: E402
from wavefield import cli  # noqa: E402


def main():
    os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(BENCH, "work"))
    os.chdir(work)  # the job argv paths are relative: cache/, eigs.csv
    grids = [(jobs.SPECTRUM_LATTICES, jobs.SPECTRUM_GRID),
             (jobs.MULTISCALE_LATTICES, jobs.MULTISCALE_GRID)]
    refs = {}
    try:
        for lattices, grid in grids:
            for k, modes, nmax in sorted(set(lattices)):
                key = jobs.lattice_key(k, modes, nmax)
                for m2, lam in grid:
                    argv = jobs.hamiltonian_argv(k, modes, nmax, m2, lam, "eigs.csv")
                    if cli.run(argv) != 0:
                        raise SystemExit(f"hamiltonian failed for {key} {m2} {lam}")
                    with open("eigs.csv", encoding="utf-8") as fh:
                        rows = fh.read().splitlines()[1:]
                    refs.setdefault(key, {})[jobs.point_key(m2, lam)] = [
                        float(r.split(",")[1]) for r in rows]
                    print(key, m2, lam, refs[key][jobs.point_key(m2, lam)], flush=True)
    finally:
        os.chdir(BENCH)
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(BENCH, "reference_spectra.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
