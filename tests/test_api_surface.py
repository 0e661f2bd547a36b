"""Ratchet on the library's optional parameters.

The count covers every parameter that has a default in the
``inspect.signature`` of every public function and class (name without a
leading underscore, defined in the module itself) of ``beamforming``,
``channel``, ``optimizer``, ``ris``, ``scene``, ``coupling`` and ``fileio``;
a class counts the parameters of its constructor.  Each such parameter is one
more setting that callers can vary and tests must cover.

The bound only goes down.  A change that adds an optional parameter raises
``MAX_OPTIONAL_PARAMETERS`` in its own diff and says why in CHANGES.md.
"""

import importlib
import inspect

MODULES = ("beamforming", "channel", "optimizer", "ris", "scene", "coupling", "fileio")
MAX_OPTIONAL_PARAMETERS = 20


def optional_parameters():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"risopt.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not (
                inspect.isfunction(obj) or inspect.isclass(obj)
            ):
                continue
            if obj.__module__ != module.__name__:
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.append(f"{name}.{attr}({param.name})")
    return found


def test_optional_parameters_do_not_grow():
    found = optional_parameters()
    assert len(found) <= MAX_OPTIONAL_PARAMETERS, found
