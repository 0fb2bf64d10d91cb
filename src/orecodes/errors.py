"""Exception types shared across the package, the one certificate check and
the one size guard."""


class DomainError(ValueError):
    """A documented precondition of an operation was violated."""


class GuardError(RuntimeError):
    """A desk-scale search/enumeration guard was exceeded."""


class VerificationError(Exception):
    """A computed result failed the certificate that protects it: a defect in
    the program, never in the input."""


# a brute-force search or enumeration over more candidates is refused before it starts
MAX_SEARCH = 1 << 16


def capped(size: int, cap: int, what: str) -> int:
    """size, if at most cap; otherwise a GuardError naming what was sized, the
    size it saw and the cap it hit, raised before the work is attempted."""
    if size > cap:
        raise GuardError(f"{what} {size} exceeds the cap {cap}")
    return size


def verify(ok, what: str) -> None:
    """Check the certificate what; unlike assert, it also runs under python -O."""
    if not ok:
        raise VerificationError(f"certificate failed: {what}")
