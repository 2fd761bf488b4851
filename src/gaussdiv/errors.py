"""Exception and warning types shared across the package."""


class GaussDivError(Exception):
    """Base class for every error raised by this package."""


class NonFinite(GaussDivError, ValueError):
    """Input contains NaN or infinite entries, or a divergence overflows a double."""


class DimMismatch(GaussDivError):
    """Operands live on spaces of different dimension."""


class EigFailure(GaussDivError):
    """An eigendecomposition failed to converge or returned garbage."""


class NotPositive(GaussDivError):
    """An operator required to be positive definite is not."""


class NotPSD(GaussDivError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""


class Degenerate(GaussDivError):
    """A covariance required to be strictly positive definite has (numerically) a kernel."""


class SingularPair(GaussDivError):
    """The two Gaussian measures are mutually singular.

    Under the equivalent-or-singular dichotomy the exact KL, Renyi and
    Bhattacharyya divergences are +inf and the Radon-Nikodym derivative does
    not exist; this exception is that outcome, not a numerical fault.
    """


class IllConditioned(RuntimeWarning):
    """A covariance about to be inverted has condition number beyond 1e12.

    That is the base covariance of a whitening, or the shifted covariance
    ``C + gamma I`` that a regularized divergence inverts; the result still
    returns, but it is unreliable.
    """
