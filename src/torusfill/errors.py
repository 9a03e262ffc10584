"""Exception types shared across the package, with its one reader of
integers and its one budget check.

_ints reads integer sequences and matrix rows: int and bool entries pass
and any other entry raises DomainError, so nothing is truncated or
parsed.  _within is where every ResourceLimitError is raised: each
enumeration budget of the package is one _within call."""

from operator import index


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its configured size limit."""


def _ints(values, what) -> tuple:
    """The entries of values, read once, as a tuple of ints converted
    with operator.index; DomainError names the first other entry.  Mat2
    and HClass.__mul__ keep their own isinstance checks, which refuse the
    same float, Fraction, Decimal and str entries: Mat2's runs on every
    2x2 product, and HClass scales by one scalar, not a sequence."""
    out = []
    for x in values:
        try:
            out.append(index(x))
        except TypeError:
            raise DomainError("%s must be integers, got %r" % (what, x)) from None
    return tuple(out)


def _within(limit, size, what):
    """Refuse size past limit: ResourceLimitError("<what % size> exceeds
    limit <limit>"), the message built only on refusal."""
    if size > limit:
        raise ResourceLimitError("%s exceeds limit %d" % (what % size, limit))
