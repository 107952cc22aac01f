"""Reference implementations the differential suites compare against.

Each module here is the slow, obvious form of a job that ``src/`` does
one fast way: the list-backed head series, the parse-everything scrape
lane, and "a range query is the instant query at every step".  They
are test oracles only — importable from tests, built on the public
APIs of ``repro``, and not selectable by any option of the program.
"""
