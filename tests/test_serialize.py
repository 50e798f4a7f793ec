import json
import math
import os

import numpy as np
import pytest

from qir import serialize
from qir.errors import ConfigError
from qir.states import fourier_basis, haar_random_pure, werner


class TestMatrixFormat:
    def test_roundtrip_exact(self):
        m = haar_random_pure(2, 3, 4).rho
        d = serialize.matrix_to_dict(m)
        assert d["dim"] == 6 and len(d["re"]) == 36 and len(d["im"]) == 36
        back = serialize.matrix_from_dict(d)
        assert np.array_equal(back, m)

    def test_json_roundtrip_exact(self):
        m = haar_random_pure(2, 2, 9).rho
        text = json.dumps(serialize.matrix_to_dict(m))
        back = serialize.matrix_from_dict(json.loads(text))
        assert np.array_equal(back, m)

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            serialize.matrix_from_dict({"dim": 2, "re": [1, 2], "im": [0, 0, 0, 0]})
        with pytest.raises(ConfigError):
            serialize.matrix_from_dict({"re": [1.0], "im": [0.0]})
        # dim -1 asks for one entry, as dim 1 does; the reshape must not see it
        for dim, entries in ((-1, [1.0]), (0, [])):
            with pytest.raises(ConfigError, match=f"^bad matrix object: dim must be >= 1, got {dim}$"):
                serialize.matrix_from_dict({"dim": dim, "re": entries, "im": [0.0] * len(entries)})


class TestStateAndBasis:
    def test_state_roundtrip(self):
        state = werner(0.37)
        d = serialize.state_to_dict(state)
        assert (d["dA"], d["dB"], d["dim"]) == (2, 2, 4)
        back = serialize.state_from_dict(d)
        assert np.array_equal(back.rho, state.rho)

    def test_basis_roundtrip(self):
        basis = fourier_basis(3)
        back = serialize.basis_from_dict(serialize.basis_to_dict(basis))
        assert np.array_equal(back.vectors, basis.vectors)

    def test_state_revalidates_on_load(self):
        d = serialize.state_to_dict(werner(0.5))
        d["re"][0] += 1.0  # breaks the unit trace
        from qir.errors import InvariantViolation

        with pytest.raises(InvariantViolation):
            serialize.state_from_dict(d)


class TestFormatting:
    def test_nine_decimals(self):
        assert serialize.fmt_nats(math.log(2)) == "0.693147181"
        assert serialize.fmt_nats(0.0) == "0.000000000"
        assert serialize.fmt_nats(-1e-15) == "0.000000000"
        assert serialize.fmt_nats(-0.25) == "-0.250000000"


class TestAtomicWrites:
    def test_write_json_and_csv(self, tmp_path):
        path = tmp_path / "out" / "x.json"
        serialize.write_json(str(path), {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')  # sorted keys
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path / "out"))

        csv_path = tmp_path / "out" / "x.csv"
        serialize.write_csv(str(csv_path), ["a", "b"], [["1", "2"], ["3", "4"]])
        assert csv_path.read_bytes() == b"a,b\n1,2\n3,4\n"
