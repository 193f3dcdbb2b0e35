// Package screen simulates the workstation display the 1986 system drew
// on. The screen is a 1-bit pixel framebuffer divided into the regions the
// paper describes: a content area, a message strip at the top (where visual
// logical messages stay pinned, §2), and a menu column on the right where
// "the menu options which are displayed define the set of available
// operations" (§2, and visible in Figures 1-2).
//
// All presentation semantics — transparency superposition, overwrites,
// relevant-object indicators — are defined as framebuffer compositions, so
// tests can assert exact pixel behaviour and golden snapshots.
package screen

import (
	"fmt"
	"strings"

	img "minos/internal/image"
)

// Default screen geometry, loosely a SUN-3 landscape display scaled down to
// keep tests fast. Sizes are configurable via New.
const (
	DefaultW   = 512
	DefaultH   = 342
	MenuWidth  = 110
	GutterCols = 2
)

// IndicatorKind distinguishes the selectable on-screen indicators.
type IndicatorKind uint8

const (
	// RelevantObject marks "a relevant object indicator ... displayed on
	// the screen of the workstation" (§2).
	RelevantObject IndicatorKind = iota
	// ReturnFromRelevant is the explicit return indicator.
	ReturnFromRelevant
	// VoiceIndicator marks a playable voice item (e.g. a voice label).
	VoiceIndicator
	// RepresentationBadge explicitly indicates that the displayed image
	// is a representation (§2).
	RepresentationBadge
)

// Indicator is a selectable icon on the screen.
type Indicator struct {
	Kind IndicatorKind
	Name string // referenced entity (object id, voice ref, ...)
	At   img.Point
}

const indicatorW, indicatorH = 9, 9

// Bounds returns the clickable rectangle of the indicator.
func (ind Indicator) Bounds() img.Rect {
	return img.Rect{X: ind.At.X, Y: ind.At.Y, W: indicatorW, H: indicatorH}
}

// Screen is the simulated workstation display.
type Screen struct {
	W, H  int
	menuW int

	content    *img.Bitmap // current content area pixels (owned)
	strip      *img.Bitmap // pinned message strip, nil when absent
	menu       []string
	indicators []Indicator
	title      string
}

// New allocates a screen; zero dims select the defaults. Screens narrower
// than twice MenuWidth shrink the menu column to a quarter of the width so
// small test screens remain usable.
func New(w, h int) *Screen {
	if w <= 0 {
		w = DefaultW
	}
	if h <= 0 {
		h = DefaultH
	}
	menuW := MenuWidth
	if w < 2*MenuWidth {
		menuW = w / 4
	}
	s := &Screen{W: w, H: h, menuW: menuW}
	s.content = img.NewBitmap(s.ContentWidth(), h)
	return s
}

// MenuW returns this screen's menu column width in pixels.
func (s *Screen) MenuW() int { return s.menuW }

// ContentWidth returns the pixel width available to content (and the
// message strip): everything left of the menu column.
func (s *Screen) ContentWidth() int { return s.W - s.menuW }

// ContentHeight returns the pixel height available to page content below
// the current message strip.
func (s *Screen) ContentHeight() int {
	if s.strip == nil {
		return s.H
	}
	return s.H - s.strip.H - GutterCols
}

// SetTitle sets the object title shown at the top of the menu column.
func (s *Screen) SetTitle(t string) { s.title = t }

// SetMenu replaces the menu options; they render top-to-bottom in the menu
// column.
func (s *Screen) SetMenu(options []string) {
	s.menu = append([]string(nil), options...)
}

// Menu returns the currently displayed options.
func (s *Screen) Menu() []string { return append([]string(nil), s.menu...) }

// SetIndicators replaces the selectable indicators.
func (s *Screen) SetIndicators(inds []Indicator) {
	s.indicators = append([]Indicator(nil), inds...)
}

// Indicators returns the current indicators.
func (s *Screen) Indicators() []Indicator { return append([]Indicator(nil), s.indicators...) }

// SelectAt simulates a mouse selection and returns the index of the topmost
// indicator containing the point, or -1.
func (s *Screen) SelectAt(x, y int) int {
	for i := len(s.indicators) - 1; i >= 0; i-- {
		if s.indicators[i].Bounds().Contains(x, y) {
			return i
		}
	}
	return -1
}

// ShowPage replaces the content area with the page bitmap (clipped or
// padded to the content area).
func (s *Screen) ShowPage(page *img.Bitmap) {
	s.content = img.NewBitmap(s.ContentWidth(), s.H)
	if page != nil {
		s.content.Or(page, 0, s.stripOffset())
	}
}

// Superimpose composites a transparency over the current content with OR
// semantics: "transparencies are visual pages which allow the user to see
// the previous visual page displayed on the screen" (§2).
func (s *Screen) Superimpose(t *img.Bitmap) {
	if t != nil {
		s.content.Or(t, 0, s.stripOffset())
	}
}

// Overwrite applies an overwrite page: its bitmaps, lines and shades
// replace whatever existed in the previous page but leave anything else
// intact (§2). mask marks the pixels the overwrite owns; those pixels are
// copied from src (set or clear), all others are untouched.
func (s *Screen) Overwrite(src, mask *img.Bitmap) {
	if src == nil || mask == nil {
		return
	}
	s.content.BlitMasked(src, mask, 0, s.stripOffset())
}

// PinStrip pins a visual logical message bitmap to the top of the screen;
// nil unpins. Pinning clears the content area (the page below must be
// re-laid-out for the reduced height).
func (s *Screen) PinStrip(strip *img.Bitmap) {
	s.strip = strip
	s.content = img.NewBitmap(s.ContentWidth(), s.H)
}

// Strip returns the pinned strip, or nil.
func (s *Screen) Strip() *img.Bitmap { return s.strip }

func (s *Screen) stripOffset() int {
	if s.strip == nil {
		return 0
	}
	return s.strip.H + GutterCols
}

// Content returns a copy of the content-area bitmap (excluding strip and
// menu) for assertions.
func (s *Screen) Content() *img.Bitmap { return s.content.Clone() }

// Render composes the full screen: strip, content, separator, menu column,
// indicators.
func (s *Screen) Render() *img.Bitmap {
	out := img.NewBitmap(s.W, s.H)
	if s.strip != nil {
		out.Or(s.strip, 0, 0)
		out.Fill(img.Rect{Y: s.strip.H, W: s.ContentWidth(), H: 1}, true)
	}
	out.Or(s.content, 0, 0)
	// Menu column separator.
	out.Fill(img.Rect{X: s.ContentWidth(), W: 1, H: s.H}, true)
	mx := s.ContentWidth() + 4
	my := 2
	if s.title != "" {
		img.DrawString(out, mx, my, truncateTo(s.title, (s.menuW-8)/6))
		my += img.GlyphHeight() + 4
	}
	for _, opt := range s.menu {
		img.DrawString(out, mx, my, truncateTo(opt, (s.menuW-8)/6))
		my += img.GlyphHeight() + 2
	}
	for _, ind := range s.indicators {
		drawIndicator(out, ind)
	}
	return out
}

func drawIndicator(b *img.Bitmap, ind Indicator) {
	r := ind.Bounds()
	for x := r.X; x < r.X+r.W; x++ {
		b.Set(x, r.Y, true)
		b.Set(x, r.Y+r.H-1, true)
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		b.Set(r.X, y, true)
		b.Set(r.X+r.W-1, y, true)
	}
	cx, cy := r.X+r.W/2, r.Y+r.H/2
	switch ind.Kind {
	case RelevantObject:
		// '>' arrow
		b.Set(cx-1, cy-2, true)
		b.Set(cx, cy-1, true)
		b.Set(cx+1, cy, true)
		b.Set(cx, cy+1, true)
		b.Set(cx-1, cy+2, true)
	case ReturnFromRelevant:
		// '<' arrow
		b.Set(cx+1, cy-2, true)
		b.Set(cx, cy-1, true)
		b.Set(cx-1, cy, true)
		b.Set(cx, cy+1, true)
		b.Set(cx+1, cy+2, true)
	case VoiceIndicator:
		b.Set(cx, cy-1, true)
		b.Set(cx-1, cy, true)
		b.Set(cx, cy, true)
		b.Set(cx+1, cy, true)
		b.Set(cx, cy+1, true)
	case RepresentationBadge:
		b.Set(cx, cy, true)
	}
}

// Snapshot returns a stable hash of the rendered screen for golden tests.
func (s *Screen) Snapshot() uint64 { return s.Render().Hash() }

// String renders a coarse ASCII preview (every 4th pixel), used by the CLI.
func (s *Screen) String() string {
	full := s.Render()
	var sb strings.Builder
	fmt.Fprintf(&sb, "screen %dx%d menu=%d indicators=%d\n", s.W, s.H, len(s.menu), len(s.indicators))
	for y := 0; y < full.H; y += 4 {
		for x := 0; x < full.W; x += 4 {
			if full.Get(x, y) || full.Get(x+1, y) || full.Get(x, y+1) || full.Get(x+1, y+1) {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func truncateTo(s string, n int) string {
	if n <= 0 {
		return ""
	}
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n])
}

// TransparencyMethod selects how a transparency set is displayed (§2).
type TransparencyMethod uint8

const (
	// Stacked displays every transparency on top of one another and on
	// top of the last page before the set.
	Stacked TransparencyMethod = iota
	// Separate displays each transparency of the set separately, on top
	// of the last page before the set.
	Separate
)

// ComposeTransparencies builds the content bitmap for showing transparency
// index i of the set under the given method. base is the last page before
// the set. With Stacked, transparencies 0..i all appear; with Separate,
// only transparency i appears. selected (used with Separate, may be nil)
// lets the user instead superimpose an arbitrary chosen subset — "he may
// choose to see certain transparencies of the set only projected at the
// same time" (§2); when non-nil it overrides i.
func ComposeTransparencies(base *img.Bitmap, set []*img.Bitmap, method TransparencyMethod, i int, selected []int) *img.Bitmap {
	out := base.Clone()
	if selected != nil {
		for _, k := range selected {
			if k >= 0 && k < len(set) {
				out.Or(set[k], 0, 0)
			}
		}
		return out
	}
	if i < 0 || i >= len(set) {
		return out
	}
	switch method {
	case Stacked:
		for k := 0; k <= i; k++ {
			out.Or(set[k], 0, 0)
		}
	case Separate:
		out.Or(set[i], 0, 0)
	}
	return out
}
