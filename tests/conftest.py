import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import ptscatter  # noqa: F401
except ImportError:  # running from a source tree without installation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def fail_ode_systems(monkeypatch):
    """install(bad_ks, error=None): transfer.solve_ivp fails each system holding a k of bad_ks.

    A system's k are read off its plane-wave initial data, psi'/psi = ik, so a
    failing system fails on its first piece. With error, every call raises it.
    """
    from ptscatter import transfer

    def install(bad_ks, error=None):
        solve_ivp = transfer.solve_ivp

        def failing(fun, t_span, y0, **kwargs):
            if error is not None:
                raise error
            sol = solve_ivp(fun, t_span, y0, **kwargs)
            n = y0.size // 4
            ks = (y0[n:2 * n] / y0[:n]).imag
            if np.isclose(ks[:, None], np.asarray(bad_ks)[None, :], rtol=1e-12, atol=0).any():
                sol.success, sol.message = False, "step too small"
            return sol

        monkeypatch.setattr(transfer, "solve_ivp", failing)

    return install
