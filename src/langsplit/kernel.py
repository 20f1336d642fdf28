"""Step kernels: primitives, constants and work buffers bound by state shape.

A kernel body is written once, as passes ``x = op(a, b, x)``: every
primitive returns its result, the body always goes on with what it
returns, and the last argument names the work buffer the pass may write
into.  Three bindings run the same body, each lane seeing the same IEEE
operations in the same order:

- **wide arrays** (more than one element): each primitive is the numpy
  ufunc itself, called with the buffer as ``out``, so a pass allocates
  nothing.  Each body claims its own arrays (:class:`Work`), made for the
  latest wide shape only: a new shape drops the old set.
- **one-element arrays**, and :data:`FRESH` on any array: the same ufuncs,
  each into a new array.  An in-place ufunc call on a one-element array
  costs about twice a call into a new one (numpy 2.4).
- **0-d states** (:data:`SCALAR`): Python floats and operators, tens of ns a
  pass where any ufunc call costs hundreds.

Constants are 0-d arrays in the array bindings and floats in the scalar
one: a ufunc converts a Python-float operand on every call.  A pass whose
buffer argument is ``None`` returns a new array in every binding, so a
kernel's last passes write its fresh results; :meth:`Kernel.result` copies
a value out of a work buffer.  No kernel returns a work buffer.
"""

from __future__ import annotations

import functools
import math
import types

import numpy as np

__all__ = ["Kernel", "Work", "FRESH", "SCALAR", "constants", "fixed",
           "kernel"]

_UFUNCS = {
    "mul": np.multiply, "add": np.add, "sub": np.subtract, "div": np.divide,
    "sqrt": np.sqrt, "arcsinh": np.arcsinh, "sinh": np.sinh,
    "square": np.square, "abs": np.absolute, "maximum": np.maximum,
    "less": np.less, "less_equal": np.less_equal,
    "logical_not": np.logical_not, "logical_and": np.logical_and,
    "matmul": np.matmul,
}


def _into_new(ufunc):
    # ``ufunc`` with its ``out`` argument dropped: every call allocates.
    if ufunc.nin == 1:
        return lambda a, out: ufunc(a)
    return lambda a, b, out: ufunc(a, b)


def _frozen(value) -> np.ndarray:
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


def fixed(*values) -> tuple:
    """Constants as ``(floats, 0-d arrays)``; ``k.form`` picks one."""
    return values, tuple(_frozen(v) for v in values)


def constants(fn):
    """Decorate ``fn``, which returns a tuple of floats, to return them as
    :func:`fixed` does, cached by argument.  An argument equal to 0 is not
    cached: 0.0 and -0.0 would share a key."""
    cache = {}

    @functools.wraps(fn)
    def lookup(*args):
        try:
            return cache[args]
        except KeyError:
            pair = fixed(*fn(*args))
            if 0.0 not in args:
                if len(cache) >= 64:
                    cache.clear()
                cache[args] = pair
            return pair
    return lookup


class Work:
    """A kernel body's claim on ``n`` work arrays: ``k.work[claim]`` is the
    same ``n`` arrays at every call of a wide kernel, ``n`` Nones else."""

    __slots__ = ("n", "dtype")

    def __init__(self, n: int, dtype=float):
        self.n, self.dtype = n, dtype


class _Sets(dict):
    # The work arrays of each claim, made at its first use.
    def __init__(self, shape):
        super().__init__()
        self.shape = shape

    def __missing__(self, claim):
        if self.shape is None:
            bufs = (None,) * claim.n
        else:
            bufs = tuple(np.empty(self.shape, claim.dtype)
                         for _ in range(claim.n))
        self[claim] = bufs
        return bufs


class Kernel:
    """The primitives and work buffers of arrays of one wide ``shape``;
    ``shape`` None binds every primitive into a new array (:data:`FRESH`)."""

    def __init__(self, shape=None):
        self.shape, self.form = shape, 1
        wide = shape is not None
        self.work = _Sets(shape)
        for name, ufunc in _UFUNCS.items():
            setattr(self, name, ufunc if wide else _into_new(ufunc))
        if wide:  # numpy 2.4 deprecates a positional ``out`` here
            self.maximum = lambda a, b, out: np.maximum(a, b, out=out)
        self.result = np.ndarray.copy if wide else _same
        self.least = _least
        self.any = np.ndarray.any

    def div_where(self, a, b, where, out):
        """``a / b`` where ``where`` holds, else 0."""
        if out is None:
            out = np.zeros(np.shape(where))
        else:
            out.fill(0.0)
        return np.divide(a, b, out=out, where=where)


def _same(x):
    return x


def _least(x):
    return x.min(initial=np.inf)


def _scalar_div(a, b, out):
    # Python raises on a zero divisor, where numpy returns inf or nan.
    return a / b if b else float(np.divide(a, b))


def _floated(ufunc):
    return lambda a, out: float(ufunc(a))


def _scalar_div_where(a, b, where, out):
    return a / b if where else 0.0


# The 0-d binding: Python floats and operators.  Its primitives are instance
# attributes, as the array kernels' are: a class attribute lookup through a
# descriptor would cost as much as the pass itself.
SCALAR = types.SimpleNamespace(
    shape=(), form=0, work=_Sets(None),
    mul=lambda a, b, out: a * b,
    add=lambda a, b, out: a + b,
    sub=lambda a, b, out: a - b,
    div=_scalar_div,
    div_where=_scalar_div_where,
    sqrt=_floated(np.sqrt),
    arcsinh=_floated(np.arcsinh),
    sinh=_floated(np.sinh),
    # ``x ** 2`` of a numpy scalar is C ``pow``, which can differ from
    # ``x * x`` in the last bit; Python's float power raises on overflow.
    square=lambda a, out: float(np.float64(a) ** 2),
    abs=lambda a, out: abs(a),
    maximum=lambda a, b, out: float(np.maximum(a, b)),
    less=lambda a, b, out: a < b,
    less_equal=lambda a, b, out: a <= b,
    logical_not=lambda a, out: not a,
    logical_and=lambda a, b, out: a and b,
    matmul=lambda a, b, out: float(a @ b),
    result=float, least=_same, any=bool)


FRESH = Kernel()
_wide = FRESH


def kernel(shape: tuple):
    """The kernel of a state of ``shape``: the one wide set is replaced
    when a new wide shape comes."""
    global _wide
    if shape == _wide.shape:
        return _wide
    if shape == ():
        return SCALAR
    if math.prod(shape) <= 1:
        return FRESH
    _wide = Kernel(shape)
    return _wide

