#!/usr/bin/env python3
"""Checks that every flag the docs pass to `xlp <cmd>` or `xlpd` is one
that command declares.

usage: check_doc_flags.py <xlp> <xlpd> <file.md>...

Scans the fenced code blocks and inline code spans of each file for
`xlp <cmd> ... --flag` and `xlpd ... --flag` invocations (up to a shell
separator such as `|`, `&&`, `;` or a redirection) and looks each flag up
in the command's `--help` listing. Prints every flag the listing lacks and
exits 1 if there is one, 0 otherwise.
"""
import re
import subprocess
import sys

SEPARATORS = {"|", "||", "&&", ";", "&", "then", "or", "and"}
INVOCATION = re.compile(r"(?:^|(?<=[\s/(]))(xlpd|xlp)(?=\s)")
FLAG = re.compile(r"^[\[(]*--([a-z][a-z0-9-]*)")


def code_regions(text):
    """Fenced blocks (with `\\` continuations joined) and inline spans."""
    regions = []
    fenced = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
    for block in fenced.finditer(text):
        regions.extend(block.group(1).replace("\\\n", " ").splitlines())
    prose = fenced.sub("", text)
    regions.extend(span.replace("\n", " ")
                   for span in re.findall(r"`([^`]+)`", prose))
    return regions


def invocations(region):
    """(binary, command, flags) for each invocation in one code region."""
    for match in INVOCATION.finditer(region):
        tokens = region[match.end():].split()
        binary = match.group(1)
        command = ""
        if binary == "xlp":
            if not tokens:
                continue
            command, tokens = tokens[0], tokens[1:]
        flags = []
        for token in tokens:
            if token in SEPARATORS or token.startswith((">", "2>")) or \
                    INVOCATION.fullmatch(token):
                break
            flag = FLAG.match(token)
            if flag:
                flags.append(flag.group(1))
            if token.endswith(";"):
                break
        yield binary, command, flags


def declared_flags(path, command):
    """The flags `path [command] --help` lists, or None for no such command."""
    args = [path] + ([command] if command else []) + ["--help"]
    result = subprocess.run(args, capture_output=True, text=True)
    if result.returncode != 0:
        return None
    return set(re.findall(r"^\s+--([a-z][a-z0-9-]*)", result.stdout, re.M))


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    binaries = {"xlp": argv[1], "xlpd": argv[2]}
    known = {}
    missing = 0
    checked = 0
    for path in argv[3:]:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for region in code_regions(text):
            for binary, command, flags in invocations(region):
                key = (binary, command)
                if key not in known:
                    known[key] = declared_flags(binaries[binary], command)
                if known[key] is None:  # a placeholder such as `xlp <cmd>`
                    continue
                checked += 1
                for flag in flags:
                    if flag not in known[key]:
                        missing += 1
                        name = " ".join(filter(None, (binary, command)))
                        print(f"{path}: `{name}` does not declare --{flag}")
    print(f"{checked} invocations checked, {missing} undeclared flags")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
