import os
import sys

# before numpy loads: no command calls BLAS, and an idle OpenBLAS thread spins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# nor hashes anything, yet numpy.random imports secrets, hmac and _hashlib, which
# maps OpenSSL's libcrypto; hashlib and hmac fall back to their builtin digests
# (all but scrypt), and a process that has already loaded _hashlib keeps it
sys.modules.setdefault("_hashlib", None)
from .cli import entry  # noqa: E402

if __name__ == "__main__":
    entry()
