import sys
from pathlib import Path

# The benchmark's modules import each other by bare name, as run.py does
# when executed as a script.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
