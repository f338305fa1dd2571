"""The CLI's --help text, from the COMMANDS table and _flags that cli passes in; imported only for help."""


def usage(command: str | None, commands: dict, flags) -> str:
    """The help of one command (its flags), or with no command the list of commands."""
    if command is None:
        lines = ["usage: starconfig <command> --flag value ...", "",
                 "Exact computations for star configurations in the monomial model.", "", "commands:"]
        lines += [f"  {name:<12} {help}" for name, (help, _, _) in commands.items()]
        lines += ["", "`starconfig <command> --help` lists the command's flags."]
        return "\n".join(lines) + "\n"
    lines = [f"usage: starconfig {command} --flag value ...", "", commands[command][0], "", "flags:"]
    for flag, spec in flags(command).items():
        value = "{" + ",".join(spec["choices"]) + "}" if "choices" in spec else "N" if "type" in spec else "TEXT"
        notes = [spec.get("help"), "required" * bool(spec.get("required"))]
        notes.append(None if spec.get("default") is None else f"default {spec['default']}")
        lines.append(f"  {flag + ' ' + value:<26} {'; '.join(filter(None, notes))}".rstrip())
    lines.append(f"  {'-h, --help':<26} print this help")
    return "\n".join(lines) + "\n"
