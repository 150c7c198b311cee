"""Chart-level tensor calculus with exact polynomial jets, conjugate
connection transforms, and residual-based verification of the coupling
identities between torsion-bearing connections, almost complex structures,
and Hermitian or Norden metrics."""

__version__ = "0.1.0"

import numpy

from .blas import pin_one_thread
from .fields import ChartDomain, PolyTensorField
from .calculus import (
    Connection,
    PolyConnection,
    LeviCivitaConnection,
    covd_values,
    exterior_d2_values,
    levi_civita,
    torsion_values,
)
from .structures import (
    AlmostComplexStructure,
    MetricField,
    fundamental_two_form,
    purity_values,
    twin_metric,
)
from .connections import average_connection, conjugate_by_bilinear, conjugate_by_J, klein_table
from .model import ChartModel, flat_hermitian_model, flat_norden_model
from .predicates import CheckReport, check
from .generate import GenSpec, SynthesisResult, synthesize_connection
from .propositions import SuiteReport, run_full_suite

pin_one_thread(numpy)

__all__ = [
    "ChartDomain",
    "PolyTensorField",
    "Connection",
    "PolyConnection",
    "LeviCivitaConnection",
    "covd_values",
    "exterior_d2_values",
    "levi_civita",
    "torsion_values",
    "AlmostComplexStructure",
    "MetricField",
    "fundamental_two_form",
    "purity_values",
    "twin_metric",
    "average_connection",
    "conjugate_by_bilinear",
    "conjugate_by_J",
    "klein_table",
    "ChartModel",
    "flat_hermitian_model",
    "flat_norden_model",
    "CheckReport",
    "check",
    "GenSpec",
    "SynthesisResult",
    "synthesize_connection",
    "SuiteReport",
    "run_full_suite",
]
