"""Option and threshold censuses: the defaulted parameters of every function
defined in qubitcone, and its thresholds. Each yes/no test reads the one
tolerance qmat.TOL, so a defaulted option is kept only where two callers need
different values or a test uses it as the reference. CI prints both counts
beside the src/ line count."""
import ast
import importlib
import inspect
import pkgutil

import qubitcone

KEPT = {
    "cli.main(argv)",  # the benchmark calls it in-process
    "correspond._state_vector(unit_trace)",  # the engines call it with both values
    "correspond.lorentz_to_element(lam)",  # CLI --lambda
    "correspond.validate(tol)",  # CLI --tol
}


# The thresholds of the package's yes/no tests: module-level floats.
THRESHOLDS = {
    "qmat.TOL",  # every residual and membership test, relative to scale
    "lorentz.TOL_V",  # the null band of a speed, 1 - |v| <= TOL_V
    "qmat._SINGULAR_DET",  # |det M| / ||M||_F^2 at or below it: the polar factor takes the phase 1
}


def census() -> list[str]:
    """module.function(parameter) for every parameter with a default."""
    options = []
    for info in pkgutil.iter_modules(qubitcone.__path__):
        mod = importlib.import_module(f"qubitcone.{info.name}")
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                options += [f"{info.name}.{name}({p.name})" for p in inspect.signature(fn).parameters.values()
                            if p.default is not p.empty]
    return options


def test_only_the_kept_options_have_defaults():
    options = census()
    assert len(options) == len(set(options))
    assert set(options) == KEPT


def test_one_tolerance_constant():
    from qubitcone import adjoint, cli, conemap, correspond, lorentz, qmat

    assert qmat.TOL == 1e-9
    assert inspect.signature(correspond.validate).parameters["tol"].default is qmat.TOL
    assert cli.PARSER.parse_args(["validate", "--measurement", "m.json"]).tol is qmat.TOL
    for mod in (conemap, adjoint, lorentz, correspond):
        assert mod.TOL is qmat.TOL


def thresholds() -> list[str]:
    """module.NAME for every float that a module of qubitcone assigns at its top level."""
    found = []
    for info in pkgutil.iter_modules(qubitcone.__path__):
        mod = importlib.import_module(f"qubitcone.{info.name}")
        names = [target.id for node in ast.parse(inspect.getsource(mod)).body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)]
        found += [f"{info.name}.{name}" for name in names if isinstance(getattr(mod, name), float)]
    return found


def test_only_the_kept_thresholds():
    found = thresholds()
    assert len(found) == len(set(found))
    assert set(found) == THRESHOLDS
