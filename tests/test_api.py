"""The public API is pinned: adding or removing a name is a visible diff."""

import slpdist


def test_public_names_are_pinned():
    # 31 names while parts had a kind, COMPOSITE and EXACT among them
    assert set(slpdist.__all__) == {
        "DistTable",
        "InvariantViolation",
        "Part",
        "Repository",
        "RunStats",
        "ScoringError",
        "ScoringFunction",
        "Slp",
        "SlpError",
        "StringPartition",
        "apply_inputs",
        "block_edit_distance",
        "build_direct",
        "build_repository",
        "default_block_size",
        "expand",
        "fibonacci_prefix_slp",
        "from_plain",
        "key_variables",
        "levenshtein",
        "lz78_parse",
        "lz78_to_slp",
        "merge_horizontal",
        "merge_vertical",
        "partition_string",
        "repair",
        "slp_from_productions",
        "var_length",
        "wagner_fischer",
    }
    assert len(slpdist.__all__) == len(set(slpdist.__all__))
    assert all(hasattr(slpdist, name) for name in slpdist.__all__)
