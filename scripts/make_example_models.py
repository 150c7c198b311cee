#!/usr/bin/env python3
"""Emit example model files for the command-line tools.

Writes four models into the target directory (default ``examples_out``):

* ``flat_hermitian_2d.json``: identity metric, constant block structure,
  zero symbols (passes every compatible-structure predicate exactly);
* ``flat_norden_2d.json``: the neutral-diagonal counterpart;
* ``random_hermitian_4d.json``: generated compatible pair with random
  polynomial symbols (generic: most predicates fail with O(1) residuals);
* ``sheared_kahler_4d.json``: flat compatible pair in sheared coordinates
  (integrable structure, closed 2-form; a good synthesis target).
"""

import argparse
from pathlib import Path

from qsg import sampling
from qsg.calculus import PolyConnection
from qsg.generate import GenSpec, gen_almost_complex, gen_hermitian_metric, gen_kahler_model, random_poly_field
from qsg.model import ChartModel, flat_hermitian_model, flat_norden_model
from qsg.model_io import canonical_doc, write_model


def write_examples(out: Path, seed: int):
    """Write the four models into ``out``, creating it if needed."""
    out.mkdir(parents=True, exist_ok=True)
    write_model(canonical_doc(flat_hermitian_model(2)), out / "flat_hermitian_2d.json")
    write_model(canonical_doc(flat_norden_model(2)), out / "flat_norden_2d.json")

    spec = GenSpec(seed=seed, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    g = gen_hermitian_metric(spec, J)
    conn = PolyConnection(random_poly_field(sampling.rng(seed, 1), 4, (1, 2), 2, 1.0))
    model = ChartModel(domain=flat_hermitian_model(4).domain, metric=g, J=J, conn=conn)
    write_model(canonical_doc(model), out / "random_hermitian_4d.json")

    km = gen_kahler_model(spec)
    km.conn = PolyConnection.zero(4)
    write_model(canonical_doc(km), out / "sheared_kahler_4d.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="examples_out")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out)
    write_examples(out, args.seed)
    print(f"wrote 4 model files to {out}/")


if __name__ == "__main__":
    main()
