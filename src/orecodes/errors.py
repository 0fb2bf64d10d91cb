"""Exception types shared across the package, and the one certificate check."""


class DomainError(ValueError):
    """A documented precondition of an operation was violated."""


class GuardError(RuntimeError):
    """A desk-scale search/enumeration guard was exceeded."""


class VerificationError(Exception):
    """A computed result failed the certificate that protects it: a defect in
    the program, never in the input."""


def verify(ok, what: str) -> None:
    """Check the certificate what; unlike assert, it also runs under python -O."""
    if not ok:
        raise VerificationError(f"certificate failed: {what}")
