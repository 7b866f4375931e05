from hypothesis import settings

# Every property test runs the same examples on every run, with no example
# database and no per-example deadline; each test sets only its own count.
settings.register_profile("oblique-mv", deadline=None, derandomize=True, database=None)
settings.load_profile("oblique-mv")
