"""The package surface: `import ptdilate` binds each module's `__all__`
and nothing else, each name to the module's own object, so that a wrapper
rebinding a module's function by identity also finds the package's name."""

import importlib
import types

import ptdilate

# the public names, by the module whose `__all__` declares them; `errors`
# has no `__all__` and exports its exception classes
SURFACE = {
    "dilation": ["H4Mode", "DilatedHamiltonian", "tau_from_metric", "tau_derivative", "assemble_dilated",
                 "hermiticity_defect"],
    "errors": ["PTDilateError", "ValidationError", "DomainError", "OverflowRangeError", "InvalidMetricError",
               "NearBreakdownError", "DegenerateDenominatorError", "BreakdownError", "IntegrationError"],
    "evolve": ["EvolutionConfig", "Trajectory", "integrate_linear", "simulate_dilated", "propagate_analytic",
               "dilation_efficiency"],
    "metric": ["DilationParams", "MetricState", "Region", "metric", "eigenvalues", "eta_evolution_residual",
               "validity", "equal_d_bound", "approx_bounds_interval", "refined_d1_bound", "breakdown_time",
               "metric_asymptotics"],
    "model": ["SIGMA_X", "HamiltonianParams", "PhaseLabel", "Spectrum", "hamiltonian", "instantaneous_spectrum"],
    "solutions": ["Representation", "SolutionBasis", "solution_basis", "model_kappas", "wronskian"],
    "specfun": ["Ray", "RayArgument", "WhittakerIndex", "whittaker_w", "erfi", "hermite_poly"],
}


def test_package_binds_exactly_the_public_names():
    public = {n for n, v in vars(ptdilate).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    expected = {name for names in SURFACE.values() for name in names}
    assert len(expected) == 50
    assert public == expected


def test_each_name_is_its_modules_object():
    for module_name, names in SURFACE.items():
        module = importlib.import_module(f"ptdilate.{module_name}")
        for name in names:
            assert getattr(ptdilate, name) is getattr(module, name), f"{module_name}.{name}"


def test_modules_declare_what_the_package_exports():
    for module_name, names in SURFACE.items():
        module = importlib.import_module(f"ptdilate.{module_name}")
        assert sorted(getattr(module, "__all__", names)) == sorted(names), module_name
