package cli

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/meta"
	"repro/internal/server"
)

// DQuery executes one dquery subcommand against a connected client and
// writes the result to out.  args[0] is the subcommand.
func DQuery(out io.Writer, c *server.Client, args []string) error {
	if err := CheckDQuery(args); err != nil {
		return err
	}
	return dqueries[args[0]](out, c, args)
}

// CheckDQuery refuses a missing or unknown subcommand, so a caller can
// refuse it before it connects to anything.
func CheckDQuery(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand")
	}
	if _, ok := dqueries[args[0]]; !ok {
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return nil
}

// dqueries maps each subcommand to its handler, which gets the whole
// argument list.
var dqueries = map[string]func(out io.Writer, c *server.Client, args []string) error{
	"state": func(out io.Writer, c *server.Client, args []string) error {
		if len(args) != 2 {
			return fmt.Errorf("state wants one OID argument")
		}
		k, err := meta.ParseKey(args[1])
		if err != nil {
			return err
		}
		st, err := c.State(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s ready=%v\n", st.Key, st.Ready)
		names := make([]string, 0, len(st.Props))
		for name := range st.Props {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %s = %s\n", name, st.Props[name])
		}
		for _, r := range st.Blocking {
			fmt.Fprintf(out, "  blocking: %s\n", r)
		}
		return nil
	},
	"report": func(out io.Writer, c *server.Client, _ []string) error {
		return printLines(out)(c.Report())
	},
	"gap": func(out io.Writer, c *server.Client, _ []string) error {
		return printLines(out)(c.Gap())
	},
	"stats": func(out io.Writer, c *server.Client, _ []string) error {
		s, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
		return nil
	},
	"blueprint": func(out io.Writer, c *server.Client, _ []string) error {
		src, err := c.Blueprint()
		if err != nil {
			return err
		}
		fmt.Fprint(out, src)
		return nil
	},
	"snapshot": func(out io.Writer, c *server.Client, args []string) error {
		if len(args) != 3 {
			return fmt.Errorf("snapshot wants <name> <root-oid|*>")
		}
		detail, err := c.Snapshot(args[1], args[2])
		if err != nil {
			return err
		}
		fmt.Fprintln(out, detail)
		return nil
	},
	"dot": func(out io.Writer, c *server.Client, args []string) error {
		if len(args) != 2 {
			return fmt.Errorf("dot wants flow or state")
		}
		doc, err := c.Dot(args[1])
		if err != nil {
			return err
		}
		fmt.Fprint(out, doc)
		return nil
	},
	// query [<lsn>] <reach|deps|equiv|resolve> <args...> — graph query
	// pinned at an LSN (omitted or 0 = current state).  Works against a
	// primary or a read-only follower; the follower waits until it has
	// applied the LSN, so the output matches the primary's at the same
	// position.
	"query": func(out io.Writer, c *server.Client, args []string) error {
		rest := args[1:]
		var lsn int64
		if len(rest) > 0 {
			if n, err := strconv.ParseInt(rest[0], 10, 64); err == nil {
				lsn = n
				rest = rest[1:]
			}
		}
		if len(rest) == 0 {
			return fmt.Errorf("query wants [<lsn>] <reach|deps|equiv|resolve> <args...>")
		}
		return printLines(out)(c.QueryAt(lsn, rest[0], rest[1:]...))
	},
	"links": func(out io.Writer, c *server.Client, args []string) error {
		if len(args) != 2 {
			return fmt.Errorf("links wants one OID argument")
		}
		k, err := meta.ParseKey(args[1])
		if err != nil {
			return err
		}
		return printLines(out)(c.Links(k))
	},
}

// printLines returns a function that writes a multi-line answer to out,
// one line each, or passes its error on.
func printLines(out io.Writer) func([]string, error) error {
	return func(lines []string, err error) error {
		if err != nil {
			return err
		}
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
		return nil
	}
}
