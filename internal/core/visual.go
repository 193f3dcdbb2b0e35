package core

import (
	"fmt"

	img "minos/internal/image"
	"minos/internal/layout"
	"minos/internal/object"
	"minos/internal/screen"
	"minos/internal/text"
	"minos/internal/voice"
)

// showCurrent redraws the screen for the current session state and runs
// the logical-message branch-in checks.
func (m *Manager) showCurrent() {
	s := m.cur()
	if s == nil {
		return
	}
	m.cfg.Screen.SetTitle(s.obj.Title)
	if s.obj.Mode == object.Audio {
		m.showAudio()
	} else {
		m.showVisual()
	}
	m.cfg.Screen.SetMenu(m.Menu())
	m.updateIndicators()
}

func (m *Manager) showVisual() {
	s := m.cur()
	m.checkVisualMessages()
	m.checkVoiceMessages()
	if s.msg != nil {
		// Split view (Figures 3-4): strip pinned, sub-page below.
		if s.msg.subNo < len(s.msg.subPages) {
			m.cfg.Screen.ShowPage(s.msg.subPages[s.msg.subNo].Bitmap)
		}
		m.trace(EvPageShown, "msgview", fmt.Sprintf("%s sub %d/%d", s.msg.name, s.msg.subNo+1, len(s.msg.subPages)), s.pageNo)
		return
	}
	if s.transp != nil && s.transp.index >= 0 {
		m.showTransparency()
		return
	}
	if s.pageNo >= 0 && s.pageNo < len(s.pages) {
		m.cfg.Screen.ShowPage(s.pages[s.pageNo].Bitmap)
		m.trace(EvPageShown, "", "", s.pageNo)
	}
}

// NextPage implements the next-page command in the current driving mode.
func (m *Manager) NextPage() error {
	s := m.cur()
	if s == nil {
		return errNoObject
	}
	if s.obj.Mode == object.Audio {
		return m.audioGotoPage(voice.PageOf(s.apages, m.Position()) + 1)
	}
	// Transparency stepping takes over next-page while a set is active.
	if s.transp != nil {
		if s.transp.index+1 < len(s.transp.set.Transparencies) {
			return m.NextTransparency()
		}
		m.endTransparencies()
	}
	if s.msg != nil {
		// Advance within the split view; past the end, leave it: "a new
		// visual page which does not contain the image" (§2).
		if s.msg.subNo+1 < len(s.msg.subPages) {
			s.msg.subNo++
			s.pos = firstWordOf(s.msg.subPages, s.msg.subNo)
			m.showCurrent()
			return nil
		}
		after := s.msg.to + 1
		m.leaveMsgView()
		return m.visualGotoWord(after)
	}
	return m.visualGotoPage(s.pageNo + 1)
}

// PrevPage implements the previous-page command.
func (m *Manager) PrevPage() error {
	s := m.cur()
	if s == nil {
		return errNoObject
	}
	if s.obj.Mode == object.Audio {
		return m.audioGotoPage(voice.PageOf(s.apages, m.Position()) - 1)
	}
	if s.transp != nil {
		if s.transp.index > 0 {
			return m.PrevTransparency()
		}
		m.endTransparencies()
	}
	if s.msg != nil {
		if s.msg.subNo > 0 {
			s.msg.subNo--
			s.pos = firstWordOf(s.msg.subPages, s.msg.subNo)
			m.showCurrent()
			return nil
		}
		before := s.msg.from - 1
		m.leaveMsgView()
		if before < 0 {
			before = 0
		}
		return m.visualGotoWord(before)
	}
	return m.visualGotoPage(s.pageNo - 1)
}

// Advance moves n pages forward (negative = backward).
func (m *Manager) Advance(n int) error {
	s := m.cur()
	if s == nil {
		return errNoObject
	}
	if s.obj.Mode == object.Audio {
		return m.audioGotoPage(voice.PageOf(s.apages, m.Position()) + n)
	}
	m.leaveMsgView()
	return m.visualGotoPage(s.pageNo + n)
}

// GotoPage jumps to an absolute page number (0-based).
func (m *Manager) GotoPage(n int) error {
	s := m.cur()
	if s == nil {
		return errNoObject
	}
	if s.obj.Mode == object.Audio {
		return m.audioGotoPage(n)
	}
	m.leaveMsgView()
	return m.visualGotoPage(n)
}

var errNoObject = fmt.Errorf("core: no object open")

func (m *Manager) visualGotoPage(n int) error {
	s := m.cur()
	if n < 0 {
		n = 0
	}
	if n >= len(s.pages) {
		n = len(s.pages) - 1
	}
	s.pageNo = n
	s.pos = firstWordOf(s.pages, n)
	m.endTransparenciesIfLeft()
	m.enterMsgViewIfAnchored()
	m.showCurrent()
	return nil
}

// visualGotoWord positions browsing at the page containing global word w.
func (m *Manager) visualGotoWord(w int) error {
	s := m.cur()
	if len(s.stream) == 0 {
		return m.visualGotoPage(0)
	}
	if w < 0 {
		w = 0
	}
	if w >= len(s.stream) {
		w = len(s.stream) - 1
	}
	s.pos = w
	if pg := layout.PageOfWord(s.pages, w); pg >= 0 {
		s.pageNo = pg
	}
	m.endTransparenciesIfLeft()
	m.enterMsgViewIfAnchored()
	m.showCurrent()
	return nil
}

// NextUnit moves to the page with the next start of the logical unit; the
// same command works symmetrically on audio objects via markers.
func (m *Manager) NextUnit(u text.Unit) error {
	s := m.cur()
	if s == nil {
		return errNoObject
	}
	if s.obj.Mode == object.Audio {
		return m.audioNextUnit(u)
	}
	m.leaveMsgView()
	next := text.NextStart(s.stream, s.pos, u)
	if next == -1 {
		return fmt.Errorf("core: no next %v", u)
	}
	return m.visualGotoWord(next)
}

// PrevUnit moves to the page with the previous start of the logical unit.
func (m *Manager) PrevUnit(u text.Unit) error {
	s := m.cur()
	if s == nil {
		return errNoObject
	}
	if s.obj.Mode == object.Audio {
		return m.audioPrevUnit(u)
	}
	m.leaveMsgView()
	prev := text.PrevStart(s.stream, s.pos, u)
	if prev == -1 {
		return fmt.Errorf("core: no previous %v", u)
	}
	return m.visualGotoWord(prev)
}

// FindPattern returns the next page with an occurrence of the pattern: in
// visual mode a phrase over the word stream, in audio mode a recognized
// utterance (§2). The search wraps forward only.
func (m *Manager) FindPattern(pattern string) error {
	s := m.cur()
	if s == nil {
		return errNoObject
	}
	if s.obj.Mode == object.Audio {
		return m.audioFindPattern(pattern)
	}
	m.leaveMsgView()
	hit := text.NextPhrase(s.stream, pattern, s.pos)
	if hit == -1 {
		m.trace(EvPatternMiss, pattern, "", s.pageNo)
		return fmt.Errorf("core: pattern %q not found after position %d", pattern, s.pos)
	}
	m.trace(EvPatternFound, pattern, fmt.Sprintf("word %d", hit), -1)
	return m.visualGotoWord(hit)
}

// --- visual logical message split view ---

// enterMsgViewIfAnchored switches to the Figures 3-4 split view when the
// current position falls inside a visual message anchor on a visual mode
// object.
func (m *Manager) enterMsgViewIfAnchored() {
	s := m.cur()
	if s.obj.Mode != object.Visual || s.msg != nil {
		return
	}
	for i := range s.obj.VisualMsgs {
		vm := &s.obj.VisualMsgs[i]
		if vm.Anchor.Media != object.MediaText {
			continue
		}
		visible := vm.Anchor.Covers(s.pos) || m.anchorOnPage(vm.Anchor)
		if !visible {
			delete(s.inVisualAnchor, vm.Name)
			continue
		}
		// Having just left this message's split view, a page that still
		// shows a few anchored words is not a fresh branch-in.
		if s.inVisualAnchor[vm.Name] {
			continue
		}
		if vm.OnceOnly && s.shownOnce[vm.Name] {
			continue
		}
		m.openMsgView(vm)
		return
	}
}

func (m *Manager) openMsgView(vm *object.VisualMessage) {
	s := m.cur()
	s.shownOnce[vm.Name] = true
	spec := m.pageSpec(vm.Strip.H)
	sub := paginateRange(s, vm.Anchor.From, vm.Anchor.To, spec)
	if len(sub) == 0 {
		return
	}
	mv := &msgView{name: vm.Name, from: vm.Anchor.From, to: vm.Anchor.To, subPages: sub}
	// Land on the sub-page containing the current position (clamped into
	// the anchored range).
	pos := s.pos
	if pos < vm.Anchor.From {
		pos = vm.Anchor.From
	}
	if pos > vm.Anchor.To {
		pos = vm.Anchor.To
	}
	s.pos = pos
	for i := range sub {
		if sub[i].HasWord(pos) {
			mv.subNo = i
		}
	}
	s.msg = mv
	s.pinned = vm.Name
	m.cfg.Screen.PinStrip(vm.Strip)
	m.trace(EvVisualMsgPinned, vm.Name, "", -1)
}

func (m *Manager) leaveMsgView() {
	s := m.cur()
	if s == nil || s.msg == nil {
		return
	}
	name := s.msg.name
	s.inVisualAnchor[name] = true
	s.msg = nil
	s.pinned = ""
	m.cfg.Screen.PinStrip(nil)
	m.trace(EvVisualMsgUnpinned, name, "", -1)
}

// checkVisualMessages handles audio-mode pinning ("the visual logical
// message will stay on display for the duration of the play of each voice
// segment to which it is attached", §2) and is a no-op for the visual-mode
// split view, which enterMsgViewIfAnchored owns.
func (m *Manager) checkVisualMessages() {
	s := m.cur()
	if s.obj.Mode != object.Audio {
		return
	}
	var active *object.VisualMessage
	for i := range s.obj.VisualMsgs {
		vm := &s.obj.VisualMsgs[i]
		if vm.Anchor.Media == object.MediaVoice && vm.Anchor.Covers(s.pos) {
			active = vm
			break
		}
	}
	switch {
	case active != nil && s.pinned != active.Name:
		s.pinned = active.Name
		m.cfg.Screen.PinStrip(active.Strip)
		m.trace(EvVisualMsgPinned, active.Name, "", -1)
	case active == nil && s.pinned != "":
		name := s.pinned
		s.pinned = ""
		m.cfg.Screen.PinStrip(nil)
		m.trace(EvVisualMsgUnpinned, name, "", -1)
	}
}

// anchorOnPage reports whether a text anchor intersects the words shown on
// the current visual page (or split sub-page): the user "branches into" a
// segment as soon as any of its words are displayed.
func (m *Manager) anchorOnPage(a object.Anchor) bool {
	s := m.cur()
	if a.Media != object.MediaText {
		return false
	}
	var pg *layout.Page
	if s.msg != nil && s.msg.subNo < len(s.msg.subPages) {
		pg = &s.msg.subPages[s.msg.subNo]
	} else if s.pageNo >= 0 && s.pageNo < len(s.pages) {
		pg = &s.pages[s.pageNo]
	}
	if pg == nil || pg.FirstWord < 0 {
		return a.Covers(s.pos)
	}
	return a.From < pg.LastWord && a.To >= pg.FirstWord
}

// checkVoiceMessages plays voice logical messages "when the user first
// branches into the corresponding segments during browsing" (§2).
func (m *Manager) checkVoiceMessages() {
	s := m.cur()
	for i := range s.obj.VoiceMsgs {
		vm := &s.obj.VoiceMsgs[i]
		var inside bool
		switch vm.Anchor.Media {
		case object.MediaText:
			inside = s.obj.Mode == object.Visual && m.anchorOnPage(vm.Anchor)
		case object.MediaVoice:
			inside = s.obj.Mode == object.Audio && vm.Anchor.Covers(s.pos)
		case object.MediaImage:
			// Image-anchored messages play when the image's page shows.
			inside = s.obj.Mode == object.Visual && m.pageShowsImage(vm.Anchor.Image)
		}
		was := s.inVoiceAnchor[vm.Name]
		s.inVoiceAnchor[vm.Name] = inside
		if inside && !was {
			m.playVoiceMsg(vm)
		}
	}
}

func (m *Manager) pageShowsImage(name string) bool {
	s := m.cur()
	if s.pageNo < 0 || s.pageNo >= len(s.pages) {
		return false
	}
	for _, p := range s.pages[s.pageNo].Pictures {
		if p == name {
			return true
		}
	}
	return false
}

func (m *Manager) playVoiceMsg(vm *object.VoiceMessage) {
	m.msgPlayer.Load(vm.Part)
	m.msgPlayer.Play(0, 0, nil)
	m.trace(EvVoiceMsgPlayed, vm.Name, "", -1)
}

// paginateRange paginates only the words [from, to] of the stream (used by
// the split view).
func paginateRange(s *session, from, to int, spec layout.Spec) []layout.Page {
	if to >= len(s.stream) {
		to = len(s.stream) - 1
	}
	if from < 0 {
		from = 0
	}
	if from > to {
		return nil
	}
	d := &layout.Doc{Stream: s.stream, Items: []layout.Item{layout.Words{From: from, To: to + 1}}}
	return layout.Paginate(d, spec)
}

func (m *Manager) updateIndicators() {
	s := m.cur()
	var inds []screen.Indicator
	for i, rl := range s.obj.Relevants {
		if rl.Anchor.Covers(s.pos) || rl.Anchor.Media == object.MediaImage {
			inds = append(inds, screen.Indicator{
				Kind: screen.RelevantObject,
				Name: fmt.Sprintf("rel%d", i),
				At:   rl.IndicatorAt,
			})
		}
	}
	if len(m.stack) > 1 {
		inds = append(inds, screen.Indicator{Kind: screen.ReturnFromRelevant, Name: "return", At: img.Point{X: 2, Y: 2}})
	}
	m.cfg.Screen.SetIndicators(inds)
}
