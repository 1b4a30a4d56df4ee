"""`python -m fpds ...` runs the fpds command line."""
from .cli import main

if __name__ == "__main__":
    main()
