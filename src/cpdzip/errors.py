"""Base error of the package; every module may raise its subclasses."""


class CpdzipError(Exception):
    """Base class for errors raised by this package."""
