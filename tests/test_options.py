"""Option census: the defaulted parameters of every function defined in
qubitcone. Each yes/no test reads the one tolerance qmat.TOL, so a defaulted
option is kept only where two callers need different values or a test
uses it as the reference. CI prints the count beside the src/ line count."""
import importlib
import inspect
import pkgutil

import qubitcone

KEPT = {
    "adjoint.psi_of_sqrt(form)",  # both closed forms are tested against each other
    "cli.main(argv)",  # the benchmark calls it in-process
    "correspond._state_vector(unit_trace)",  # the engines call it with both values
    "correspond.lorentz_to_element(lam)",  # CLI --lambda
    "correspond.validate(tol)",  # CLI --tol
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
