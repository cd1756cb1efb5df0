import os
import sys
from pathlib import Path

# run BLAS on one thread, as the CLI does (cli.py); a value set outside wins.
# This must come before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).parent))
