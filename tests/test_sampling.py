"""Chart sampling: the numpy scrambled Halton sampler against scipy's, and
a command line that never loads scipy to sample."""

import json
import subprocess
import sys

import numpy as np
import pytest

from qsg import sampling
from qsg.calculus import PolyConnection
from qsg.generate import GenSpec, gen_almost_complex, gen_hermitian_metric, random_poly_field
from qsg.model import ChartModel, flat_hermitian_model
from qsg.model_io import canonical_doc, write_model


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 12, 20])
def test_sample_box_matches_scipy_bit_for_bit(d):
    qmc = pytest.importorskip("scipy.stats").qmc
    box = np.array([(-0.5 - 0.1 * i, 0.25 + 0.3 * i) for i in range(d)])
    lo, width = box[:, 0], box[:, 1] - box[:, 0]
    for n in (1, 2, 16, 25, 200, 3600):
        for seed, path in ((0, ()), (7, (3,)), (12345, (sampling.tag("synthesize"), 1)),
                           (2 ** 31 - 1, (4, 9, 2))):
            u = qmc.Halton(d, scramble=True, seed=sampling.rng(seed, *path)).random(n)
            want = lo + width * (sampling.MARGIN + (1.0 - 2.0 * sampling.MARGIN) * u)
            got = sampling.sample_box(box, n, seed, *path)
            assert np.array_equal(got, want), (d, n, seed, path)
            # the layout decides the summation order of later reductions
            assert got.strides == want.strides, (d, n, seed, path)


def test_import_and_check_load_no_scipy(tmp_path):
    spec = GenSpec(seed=0, dimension=4, degree=2)
    J = gen_almost_complex(spec)
    model = ChartModel(domain=flat_hermitian_model(4).domain,
                       metric=gen_hermitian_metric(spec, J), J=J,
                       conn=PolyConnection(random_poly_field(sampling.rng(0, 1), 4, (1, 2), 2, 1.0)))
    path = tmp_path / "hermitian_4d.json"
    write_model(canonical_doc(model), path)
    script = (
        "import json, sys\n"
        "import qsg.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "after_import = loaded()\n"
        f"code = qsg.cli.main(['check', {str(path)!r}, '--predicates',\n"
        "                      'almost_complex,hermitian,quasi_statistical,integrable,kahler',\n"
        "                      '--samples', '40'])\n"
        "print(json.dumps([code, after_import, loaded()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, after_import, after_check = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code in (0, 1)
    assert after_import == []
    assert after_check == []
