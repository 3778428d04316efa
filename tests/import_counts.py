"""What a fresh ``import storefront.cli`` resolves and compiles, printed as
one JSON object: the ``typing.get_type_hints`` calls, the ``ForwardRef``
evaluations and the ``run_generated`` compiles (each under its own
``<...>`` filename; a ``ForwardRef`` compiles under ``<string>``).

Run it as ``PYTHONPATH=src python tests/import_counts.py``, or with another
tree's ``src`` to count that tree's import. The counts do not depend on
timing, or on whether bytecode is cached.
"""

import builtins
import json
import typing

counts = {"get_type_hints": 0, "forward_ref_evaluations": 0, "generated_compiles": 0}


def counted(name, fn):
    def call(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return call


def compile_counted(source, filename, *args, _compile=builtins.compile, **kwargs):
    if isinstance(filename, str) and filename.startswith("<") and filename != "<string>":
        counts["generated_compiles"] += 1
    return _compile(source, filename, *args, **kwargs)


typing.get_type_hints = counted("get_type_hints", typing.get_type_hints)
evaluate = "_evaluate" if hasattr(typing.ForwardRef, "_evaluate") else "evaluate"
setattr(typing.ForwardRef, evaluate,
        counted("forward_ref_evaluations", getattr(typing.ForwardRef, evaluate)))
builtins.compile = compile_counted

import storefront.cli  # noqa: E402,F401  (counted from here on)

print(json.dumps(counts, sort_keys=True))
