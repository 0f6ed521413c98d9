from iofootprint.reporting import render


def test_line_breaks_in_keys_and_text_values_print_as_escapes():
    tree = {"a\nb": {"c\rd": "x\ny\r\nz", "n": 1.5}, "ok": True}
    assert render(tree) == "a\\nb.c\\rd = x\\ny\\r\\nz\na\\nb.n = 1.5\nok = true\n"
    # Every other character, a backslash included, is written as it is.
    text = 'back\\nslash, tab\t, \x1c, \u2028, "q", = '
    assert render({"k": text}) == f"k = {text}\n"
