import dataclasses

import pytest

from gkbo.solver import RunReport


@pytest.fixture
def assert_reports_identical():
    """A check that two reports agree in every field, ``final_consensus`` byte for byte."""

    def check(got: RunReport, want: RunReport) -> None:
        for field in dataclasses.fields(RunReport):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "final_consensus":
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert a == b and type(a) is type(b), field.name

    return check
