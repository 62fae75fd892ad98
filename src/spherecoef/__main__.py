"""python -m spherecoef runs the command line, as the spherecoef script does."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
