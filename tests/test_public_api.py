"""The names the package exports."""

import zrs
from zrs import classifier, errors, interaction, metric, pauli, smatrix

# names that only tests used, taken out of the package
REMOVED = {
    zrs: (
        "compose", "decompose", "PotentialABCD", "check_applicability",
        "find_poles", "spectral_singularities", "exceptional_points", "InternalInconsistency",
    ),
    classifier: ("find_poles", "spectral_singularities", "exceptional_points", "_merged", "_exceptional", "_nilpotent"),
    errors: ("InternalInconsistency",),
    pauli: ("compose", "decompose", "_square"),
    interaction: ("PotentialABCD",),
    metric: ("check_applicability",),
    smatrix: ("_ZERO", "_HALF_IDENTITY", "_TILTED", "_double_root"),
    pauli.PauliVector: ("space_part",),
    smatrix.SMatrixFn: ("is_constant", "gamma"),
    metric.Applicability: ("NOT_APPLICABLE",),
    interaction.Interaction.from_abcd(1, 0, 0, 0): ("origin",),
    smatrix.build(interaction.Interaction.from_abcd(1, 0, 0, 0)): ("p_coeffs",),
}


def test_exported_names_resolve_and_removed_names_are_gone():
    assert len(set(zrs.__all__)) == len(zrs.__all__)
    for name in zrs.__all__:
        assert getattr(zrs, name) is not None, name
    assert not set(REMOVED[zrs]) & set(zrs.__all__)
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), name
