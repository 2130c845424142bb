"""Full routing flows: the stitch-aware framework and its baseline.

The implementation lives in :mod:`repro.core.flow`; import the flow
classes from the stable facade :mod:`repro.api`.
"""
