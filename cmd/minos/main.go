// Command minos is the workstation-side command-line tool of the
// reproduction. It talks to an object server — either the in-process
// demonstration corpus or a remote minos-server over TCP — and exposes the
// presentation manager through a scripted command language.
//
// Usage:
//
//	minos query <term|predicate>...          evaluate a content query
//	                                         (kind:visual|audio, after:/before:YYYY-MM-DD)
//	minos list                               list published objects
//	minos -script "cmds" browse <id>         open an object and run commands
//	minos [-clients n] simulate              run the queueing simulation
//	minos mailout <id>                       show inside/outside mail sizes
//	minos interactive                        read commands from stdin
//
// Flags precede the subcommand.
//
// Global flags:
//
//	-connect addr    use a remote server instead of the built-in corpus
//	-cluster         treat -connect as a fleet seed and route via the cluster map
//	-timeout d       per-call deadline for remote servers (default 10s)
//	-fillers n       filler documents in the built-in corpus (default 12)
//
// The browse script is a comma-separated command list:
//
//	next, prev, advance:N, goto:N, find:PATTERN, nextunit:chapter,
//	prevunit:section, play, interrupt, resume, pagestart,
//	rewind:N:short|long, transp, transp:next, transp:prev, relevant:I,
//	return, tour:NAME, process:NAME, wait:SECONDS, view:IMG:X:Y:W:H,
//	move:DX:DY, jump:X:Y, highlight:PATTERN, screen
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"minos/internal/cluster"
	"minos/internal/core"
	"minos/internal/demo"
	img "minos/internal/image"
	"minos/internal/index"
	"minos/internal/loadgen"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/server"
	"minos/internal/text"
	"minos/internal/vclock"
	"minos/internal/wire"
	"minos/internal/workstation"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "minos: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("minos", flag.ContinueOnError)
	connect := fs.String("connect", "", "remote server address (default: built-in corpus)")
	clustered := fs.Bool("cluster", false, "treat -connect as a fleet seed and route via the cluster map")
	timeout := fs.Duration("timeout", 10*time.Second, "per-call deadline for remote servers (0 = none)")
	fillers := fs.Int("fillers", 12, "filler documents in the built-in corpus")
	script := fs.String("script", "next,next,prev", "browse command script")
	clients := fs.Int("clients", 8, "simulate: concurrent users")
	requests := fs.Int("requests", 12, "simulate: requests per user")
	sched := fs.String("sched", "fcfs", "simulate: scheduler (fcfs, sstf, scan)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand")
	}

	session, srv, err := openSession(*connect, *clustered, *fillers)
	if err != nil {
		return err
	}
	defer session.Close()

	// Per-call deadline: each wire exchange (and the retries inside it)
	// must finish within -timeout.
	callCtx := func() (context.Context, context.CancelFunc) {
		if *timeout <= 0 {
			return context.Background(), func() {}
		}
		return context.WithTimeout(context.Background(), *timeout)
	}

	switch rest[0] {
	case "query":
		if len(rest) < 2 {
			return fmt.Errorf("query needs terms")
		}
		// The argument list is one planner query: bare words are AND
		// terms, kind:/after:/before: are attribute predicates.
		q, err := index.ParseQuery(strings.Join(rest[1:], " "))
		if err != nil {
			return err
		}
		ctx, cancel := callCtx()
		n, err := session.QueryPlannedCtx(ctx, q)
		cancel()
		if err != nil {
			return err
		}
		fmt.Printf("%d qualifying objects\n", n)
		for {
			ctx, cancel := callCtx()
			st, err := session.NextMiniatureCtx(ctx)
			cancel()
			if err != nil {
				return err
			}
			if st.Done {
				break
			}
			note := ""
			if st.Stale {
				note = "  (stale: server unreachable, cached copy)"
			}
			fmt.Printf("  object %d  miniature %dx%d (%d bytes)%s\n", st.ID, st.Mini.W, st.Mini.H, st.Mini.ByteSize(), note)
		}
		return nil
	case "list":
		ids, _, err := listIDs(session)
		if err != nil {
			return err
		}
		for _, id := range ids {
			fmt.Printf("  object %d\n", id)
		}
		return nil
	case "browse":
		if len(rest) < 2 {
			return fmt.Errorf("browse needs an object id")
		}
		id, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad object id %q", rest[1])
		}
		if err := session.OpenObject(object.ID(id)); err != nil {
			return err
		}
		return runScript(session.Manager(), *script)
	case "simulate":
		if srv == nil {
			return fmt.Errorf("simulate requires the built-in corpus (no -connect)")
		}
		return simulate(srv, *clients, *requests, *sched)
	case "interactive":
		return interactive(session, os.Stdin)
	case "mailout":
		if srv == nil {
			return fmt.Errorf("mailout requires the built-in corpus (no -connect)")
		}
		if len(rest) < 2 {
			return fmt.Errorf("mailout needs an object id")
		}
		id, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad object id %q", rest[1])
		}
		return mailout(srv, object.ID(id))
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

// interactive reads one command per line from r. Besides the browse script
// commands it understands:
//
//	query <terms...>   run a content query and show the miniature browser
//	refine <terms...>  narrow the current result set
//	cursor next|prev   move the miniature cursor
//	open [id]          present the selected (or given) object
//	quit
func interactive(sess *workstation.Session, r io.Reader) error {
	ctx := context.Background()
	sc := bufio.NewScanner(r)
	fmt.Println("minos interactive session; 'query <terms>' to start, 'quit' to exit")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var err error
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "query":
			var n int
			n, err = sess.QueryCtx(ctx, fields[1:]...)
			if err == nil {
				fmt.Printf("%d qualifying objects\n", n)
				err = sess.ShowBrowserCtx(ctx)
			}
		case "refine":
			var n int
			n, err = sess.RefineCtx(ctx, fields[1:]...)
			if err == nil {
				fmt.Printf("%d objects after refinement\n", n)
				err = sess.ShowBrowserCtx(ctx)
			}
		case "cursor":
			var st workstation.BrowseStep
			if len(fields) > 1 && fields[1] == "prev" {
				st, err = sess.PrevMiniatureCtx(ctx)
			} else {
				st, err = sess.NextMiniatureCtx(ctx)
			}
			if err == nil && !st.Done {
				fmt.Printf("cursor on object %d\n", st.ID)
				err = sess.ShowBrowserCtx(ctx)
			} else if st.Done {
				fmt.Println("end of results")
			}
		case "open":
			if len(fields) > 1 {
				var id uint64
				id, err = strconv.ParseUint(fields[1], 10, 64)
				if err == nil {
					err = sess.OpenObject(object.ID(id))
				}
			} else {
				err = sess.OpenSelected()
			}
			if err == nil {
				m := sess.Manager()
				fmt.Printf("opened %q: page %d/%d\n", m.Object().Title, m.PageNo()+1, m.PageCount())
			}
		case "screen":
			fmt.Println(sess.Manager().Screen().String())
		default:
			err = applyCommand(sess.Manager(), strings.Join(fields, ":"))
			if err == nil {
				m := sess.Manager()
				fmt.Printf("page %d/%d pos %d\n", m.PageNo()+1, m.PageCount(), m.Position())
			}
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
	return sc.Err()
}

func openSession(connect string, clustered bool, fillers int) (*workstation.Session, *server.Server, error) {
	cfg := core.Config{Screen: screen.New(512, 342), Clock: vclock.New(), VoiceOption: true}
	if connect != "" && clustered {
		// Routed fleet client: the session layer is identical — the
		// cluster client is just another workstation.Backend.
		cc, err := cluster.Dial(connect, func(ep string) (wire.Transport, error) { return wire.DialMux(ep) })
		if err != nil {
			return nil, nil, err
		}
		return workstation.New(cc, cfg), nil, nil
	}
	if connect != "" {
		// Multiplexed transport: retries on transient faults, and redials
		// the server if the connection drops mid-session.
		tp, err := wire.DialMux(connect)
		if err != nil {
			return nil, nil, err
		}
		client := wire.NewClient(tp)
		client.EnableReconnect(func() (wire.Transport, error) { return wire.DialMux(connect) })
		return workstation.New(client, cfg), nil, nil
	}
	c, err := demo.Build(1<<16, fillers)
	if err != nil {
		return nil, nil, err
	}
	lt := wire.EthernetLink(&wire.Handler{Srv: c.Server})
	return workstation.New(wire.NewClient(lt), cfg), c.Server, nil
}

func listIDs(s *workstation.Session) ([]object.ID, int, error) {
	n, err := s.QueryCtx(context.Background(), "the") // cheap "everything-ish" query fallback
	if err != nil {
		return nil, 0, err
	}
	return s.Results(), n, nil
}

func runScript(m *core.Manager, script string) error {
	for _, raw := range strings.Split(script, ",") {
		cmd := strings.TrimSpace(raw)
		if cmd == "" {
			continue
		}
		before := len(m.Events())
		if err := applyCommand(m, cmd); err != nil {
			fmt.Printf("%-24s -> error: %v\n", cmd, err)
			continue
		}
		fmt.Printf("%-24s -> page %d/%d pos %d\n", cmd, m.PageNo()+1, m.PageCount(), m.Position())
		for _, e := range m.Events()[before:] {
			fmt.Printf("    event %-20s %s %s\n", e.Kind, e.Name, e.Detail)
		}
	}
	return nil
}

func applyCommand(m *core.Manager, cmd string) error {
	parts := strings.Split(cmd, ":")
	arg := func(i int) string {
		if i < len(parts) {
			return parts[i]
		}
		return ""
	}
	num := func(i int) int {
		n, _ := strconv.Atoi(arg(i))
		return n
	}
	switch parts[0] {
	case "next":
		return m.NextPage()
	case "prev":
		return m.PrevPage()
	case "advance":
		return m.Advance(num(1))
	case "goto":
		return m.GotoPage(num(1))
	case "find":
		return m.FindPattern(strings.Join(parts[1:], " "))
	case "nextunit":
		u, err := parseUnit(arg(1))
		if err != nil {
			return err
		}
		return m.NextUnit(u)
	case "prevunit":
		u, err := parseUnit(arg(1))
		if err != nil {
			return err
		}
		return m.PrevUnit(u)
	case "play":
		return m.Play()
	case "interrupt":
		return m.Interrupt()
	case "resume":
		return m.Resume()
	case "pagestart":
		return m.ResumeFromPageStart()
	case "rewind":
		return m.RewindPauses(num(1), arg(2) == "long")
	case "transp":
		if arg(1) == "next" {
			return m.NextTransparency()
		}
		if arg(1) == "prev" {
			return m.PrevTransparency()
		}
		return m.ShowTransparencies()
	case "relevant":
		return m.EnterRelevant(num(1))
	case "return":
		return m.ReturnFromRelevant()
	case "tour":
		return m.StartTour(arg(1))
	case "process":
		return m.StartProcess(arg(1))
	case "wait":
		m.Clock().Run(m.Clock().Now() + time.Duration(num(1))*time.Second)
		return nil
	case "view":
		return m.OpenView(arg(1), img.Rect{X: num(2), Y: num(3), W: num(4), H: num(5)})
	case "move":
		return m.MoveView(num(1), num(2))
	case "jump":
		return m.JumpView(num(1), num(2))
	case "highlight":
		_, err := m.HighlightLabels(arg(1))
		return err
	case "screen":
		fmt.Println(m.Screen().String())
		return nil
	}
	return fmt.Errorf("unknown command %q", parts[0])
}

func parseUnit(s string) (text.Unit, error) {
	switch s {
	case "word":
		return text.UnitWord, nil
	case "sentence":
		return text.UnitSentence, nil
	case "paragraph":
		return text.UnitParagraph, nil
	case "section":
		return text.UnitSection, nil
	case "chapter":
		return text.UnitChapter, nil
	}
	return 0, fmt.Errorf("unknown unit %q", s)
}

func simulate(srv *server.Server, clients, requests int, sched string) error {
	var kind loadgen.Discipline
	switch sched {
	case "fcfs":
		kind = loadgen.FCFS
	case "sstf":
		kind = loadgen.SSTF
	case "scan":
		kind = loadgen.SCAN
	default:
		return fmt.Errorf("unknown scheduler %q", sched)
	}
	fmt.Printf("%-8s %-8s %-12s %-12s %-12s %-6s\n", "clients", "served", "mean", "p95", "max", "util")
	for _, c := range []int{1, clients / 2, clients} {
		if c < 1 {
			c = 1
		}
		st := loadgen.RunQueue(srv, loadgen.QueueConfig{
			Clients: c, RequestsEach: requests,
			ThinkTime: 100 * time.Millisecond, PieceLen: 8192,
			Sched: kind, Seed: 42,
		})
		fmt.Printf("%-8d %-8d %-12v %-12v %-12v %.2f\n", c, st.Served, st.Mean, st.P95, st.Max, st.Utilization)
	}
	return nil
}

func mailout(srv *server.Server, id object.ID) error {
	arch := srv.Archiver()
	inside, _, err := arch.MailOut(id, true)
	if err != nil {
		return err
	}
	outside, _, err := arch.MailOut(id, false)
	if err != nil {
		return err
	}
	fmt.Printf("object %d mail-out: inside organization %d bytes, outside %d bytes\n", id, len(inside), len(outside))
	return nil
}
