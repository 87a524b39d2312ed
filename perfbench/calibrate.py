"""Fixed calibration work, timed by run.py to track the machine's speed.

It uses no ``subsup`` code, so a change to the program cannot move it.
Like a CLI command it starts an interpreter, imports numpy and
scipy.sparse, runs sparse matrix-vector products and vector norms (the
inner loop of CG), and runs plain Python bytecode.
"""

import numpy as np
import scipy.sparse as sp

n = 20000
A = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
x = np.ones(n)
for _ in range(500):
    x = A @ x
    x /= np.linalg.norm(x)
s = 0
for i in range(300_000):
    s += i
