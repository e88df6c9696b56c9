"""Exact homological algebra over graded polynomial rings F_p[x_1..x_r],
with verification routines for syzygy-based noncommutative resolutions.
"""

from .ring import (AlgebraError, DegreeError, EngineError, ParseError,
                   Polynomial, RingContext, format_polynomial,
                   parse_polynomial)
from .groebner import (FreeModuleMap, GroebnerBasis, buchberger, lift_solve,
                       syzygy_basis)
from .modules import (FPModule, FreeResolution, INFINITE, ModuleMorphism,
                      cokernel, cokernel_with_projection, direct_sum,
                      free_module, homology, kernel, kernel_with_inclusion,
                      make_module, make_morphism, minimal_generator_indices,
                      minimal_presentation, minimal_resolution, syzygy)
from .homalg import (AddMResolution, HomModule, LiftExactnessVerdict,
                     StableHom, add_M_resolution,
                     check_lift_exactness, ext, factor_ideal, grade,
                     hom_module, induced_post_hom, is_d_torsionfree,
                     is_generator, omega_power_on_morphism, stable_hom,
                     transpose)
from .ncr import (DEPTH_EXHAUSTED, ENGINE_VERSION, HYPOTHESIS_FAILED,
                  NCRHypotheses, NCRReport, VERIFIED, Verdict,
                  check_theorem_part1, corollary_build, normalize_cs,
                  theorem_bound, verify_claim1, verify_exact2,
                  verify_lemmas)
from .cli import JobSpec, main, parse_job, print_job, run_job

__version__ = ENGINE_VERSION
