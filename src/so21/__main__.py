"""`python -m so21`: the so21 command line."""
from .cli import main

main()
