import inspect
import pickle

import pytest

from sfrbsde import errors

# constructor arguments of the errors that carry fields of their own; every
# other error takes one message
FIELDS = {
    errors.ConfigError: (["a: bad", "b: worse"],),
    errors.QuadratureConvergenceError: (1.0, 1.5, 1e-8),
    errors.PicardError: (7, 2.5e-3, 1e-10),
    errors.DomainTooSmallError: (0.125, 3.5),
    errors.InfeasibleAlphaError: (0.5, 0.25),
}

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.SfrbsdeError)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    # the sweep's producer process sends its errors pickled
    assert ("__init__" in vars(cls)) == (cls in FIELDS)
    exc = cls(*FIELDS.get(cls, ("numeric trouble",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
