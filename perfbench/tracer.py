"""Run the h2discord CLI with a span around every public layer function.

Usage: python3 perfbench/tracer.py SPANS_JSON <h2discord arguments...>

Every public function defined in one of the layer modules is wrapped,
and the wrapper is bound wherever an ``h2discord`` module holds the
function by name, so calls through ``from .x import f`` are traced too.
Spans (name, start, end, parent) stay in memory and are written to
SPANS_JSON when the CLI returns; the process exits with the CLI's code.
SPANS_JSON also holds ``overhead_s``, the time the tracer itself spent:
wrapping the functions, and each wrapper's bookkeeping outside the
wrapped call.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("statespace", "operators", "dynamics", "discord", "analysis",
          "cli")


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, extra]
        self._stack = []
        self.overhead_s = 0.0

    def wrap(self, name, fn):
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            self.overhead_s += span[1] - entered
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            self.overhead_s += time.perf_counter() - span[2]
            return result

        return traced


def _impurity(args, kwargs, result):
    mat = (args[0] if args else kwargs["rho_AB"]).mat
    return 1.0 - float(abs((mat * mat.conj()).sum()))


# Per-call data the metrics need, taken after the span has ended.
_EXTRAS = {
    "discord.discord": _impurity,
    "dynamics.evolve": lambda args, kwargs, traj: len(traj),
    "statespace.table_space": lambda args, kwargs, space: space.size,
    "statespace.full_space": lambda args, kwargs, space: space.size,
    "statespace.generate_space": lambda args, kwargs, space: space.size,
}


def install(tracer: Tracer) -> dict:
    """Wrap each layer's public functions; returns {qualified name: wrapper}."""
    wrappers = {}
    by_original = {}
    for layer in LAYERS:
        module = importlib.import_module(f"h2discord.{layer}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{name}", fn)
            wrappers[f"{layer}.{name}"] = wrapper
            by_original[fn] = wrapper
    for module_name, module in list(sys.modules.items()):
        if module_name != "h2discord" \
                and not module_name.startswith("h2discord."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in by_original:
                setattr(module, attr, by_original[value])
    return wrappers


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    # an untraced run imports the layers too; only the wrapping is overhead
    for layer in LAYERS:
        importlib.import_module(f"h2discord.{layer}")
    start = time.perf_counter()
    wrappers = install(tracer)
    tracer.overhead_s += time.perf_counter() - start
    code = wrappers["cli.main"](cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"names": sorted(wrappers), "spans": tracer.spans,
                   "overhead_s": tracer.overhead_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
