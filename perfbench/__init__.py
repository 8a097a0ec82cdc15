"""Layer-ledger benchmark for the repro HPC-QC stack (see ``run.py``)."""
