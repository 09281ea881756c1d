package vhdl_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vhdl"
)

// cpuVHDL is a complete accumulator processor written in the VHDL subset —
// the same micro16-style machine the core tests build in MDL.
const cpuVHDL = `
library ieee;
use ieee.numeric_std.all;

entity alu is
  port (a  : in  unsigned(15 downto 0);
        b  : in  unsigned(15 downto 0);
        op : in  unsigned(2 downto 0);
        y  : out unsigned(15 downto 0));
end entity;

architecture rtl of alu is
begin
  with op select y <=
    a + b   when "000",
    a - b   when "001",
    a and b when "010",
    a or b  when "011",
    a xor b when "100",
    a * b   when "110",
    b       when others;
end architecture;

entity bmux is
  port (m   : in  unsigned(15 downto 0);
        imm : in  unsigned(15 downto 0);
        s   : in  std_logic;
        y   : out unsigned(15 downto 0));
end entity;

architecture rtl of bmux is
begin
  y <= imm when s = '1' else m;
end architecture;

entity reg is
  port (clk : in std_logic;
        d   : in unsigned(15 downto 0);
        ld  : in std_logic;
        q   : out unsigned(15 downto 0));
end entity;

architecture rtl of reg is
  signal r : unsigned(15 downto 0);
begin
  q <= r;
  process (clk) begin
    if rising_edge(clk) then
      if ld = '1' then
        r <= d;
      end if;
    end if;
  end process;
end architecture;

entity ram is
  port (clk : in std_logic;
        a   : in unsigned(7 downto 0);
        d   : in unsigned(15 downto 0);
        w   : in std_logic;
        q   : out unsigned(15 downto 0));
end entity;

architecture rtl of ram is
  type mem_t is array (0 to 255) of unsigned(15 downto 0);
  signal m : mem_t;
begin
  q <= m(to_integer(a));
  process (clk) begin
    if rising_edge(clk) then
      if w = '1' then
        m(to_integer(a)) <= d;
      end if;
    end if;
  end process;
end architecture;

entity rom is
  port (a : in unsigned(7 downto 0);
        q : out unsigned(31 downto 0));
end entity;

architecture rtl of rom is
  type mem_t is array (0 to 255) of unsigned(31 downto 0);
  signal m : mem_t;
begin
  q <= m(to_integer(a));
end architecture;

entity pcinc is
  port (a : in unsigned(7 downto 0); y : out unsigned(7 downto 0));
end entity;

architecture rtl of pcinc is
begin
  y <= a + 1;
end architecture;

entity pcreg is
  port (clk : in std_logic;
        d   : in unsigned(7 downto 0);
        q   : out unsigned(7 downto 0));
end entity;

architecture rtl of pcreg is
  signal r : unsigned(7 downto 0);
begin
  q <= r;
  process (clk) begin
    if rising_edge(clk) then
      r <= d;
    end if;
  end process;
end architecture;

entity cpu is
  port (clk : in std_logic);
end entity;

architecture struct of cpu is
  signal accq, aluy, bmuxy, ramq : unsigned(15 downto 0);
  signal insn : unsigned(31 downto 0);
  signal pcq, pcn : unsigned(7 downto 0);
  attribute record_role : string;
  attribute record_role of imem_i : label is "instruction";
  attribute record_role of pc_i : label is "pc";
begin
  alu_i  : entity work.alu   port map (a => accq, b => bmuxy, op => insn(31 downto 29), y => aluy);
  bmux_i : entity work.bmux  port map (m => ramq, imm => insn(15 downto 0), s => insn(28), y => bmuxy);
  acc_i  : entity work.reg   port map (clk => clk, d => aluy, ld => insn(27), q => accq);
  ram_i  : entity work.ram   port map (clk => clk, a => insn(7 downto 0), d => accq, w => insn(26), q => ramq);
  imem_i : entity work.rom   port map (a => pcq, q => insn);
  pc_i   : entity work.pcreg port map (clk => clk, d => pcn, q => pcq);
  pinc_i : entity work.pcinc port map (a => pcq, y => pcn);
end architecture;
`

func TestTranslateProducesValidMDL(t *testing.T) {
	mdl, err := vhdl.Translate(cpuVHDL)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	for _, want := range []string{
		"PROCESSOR cpu;",
		"MODULE alu",
		"CASE op OF 0: (a + b);",
		"VAR m: 16 [256];",
		"AT (w == 1) DO m[a] <- d;",
		"imem_i : rom INSTRUCTION;",
		"pc_i : pcreg PC;",
		"alu_i.op <- imem_i.q[31:29];",
	} {
		if !strings.Contains(mdl, want) {
			t.Errorf("MDL output missing %q:\n%s", want, mdl)
		}
	}
}

// TestVHDLEndToEnd is the paper's planned VHDL frontend, closed: a VHDL
// processor model retargets and compiles programs that run correctly on
// the simulated netlist.
func TestVHDLEndToEnd(t *testing.T) {
	mdl, err := vhdl.Translate(cpuVHDL)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatalf("retarget translated model: %v\n%s", err, mdl)
	}
	if tg.Stats.Extracted == 0 {
		t.Fatal("no templates extracted")
	}
	comp, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.CompileSource(context.Background(), `
int a = 6; int b = 7;
int prod; int mix;
prod = a * b;
mix = (prod ^ a) & 255;
`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := tg.CheckAgainstOracle(res); err != nil {
		t.Fatalf("oracle: %v\n%s", err, tg.Listing(res))
	}
}

func TestTranslateErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"entity e is end;", "no structural architecture"},
		{"garbage", "expected entity"},
		{`entity e is port (x : inout std_logic); end;`, "unsupported port mode"},
		{`entity e is port (x : in unsigned(3 downto 1)); end;`, "downto 0"},
		{`library ieee;
entity a is port (y : out std_logic); end;
architecture r of a is begin y <= '1'; end;
entity t is end;
architecture s of t is
  signal q : std_logic;
begin
  a1 : entity work.a port map (y => q);
  a2 : entity work.b port map (y => q);
end;`, "no declaration"},
	}
	for i, c := range cases {
		_, err := vhdl.Translate(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want substring %q", i, err, c.want)
		}
	}
}

func TestKeywordSanitization(t *testing.T) {
	// VHDL identifiers that collide with MDL keywords must be renamed.
	src := `
entity pass is
  port (a : in unsigned(7 downto 0); q : out unsigned(7 downto 0));
end;
architecture r of pass is
begin
  q <= a;
end;
entity rom is
  port (a : in unsigned(3 downto 0); q : out unsigned(15 downto 0));
end;
architecture r of rom is
  type m_t is array (0 to 15) of unsigned(15 downto 0);
  signal m : m_t;
begin
  q <= m(to_integer(a));
end;
entity pcreg is
  port (clk : in std_logic; d : in unsigned(3 downto 0); q : out unsigned(3 downto 0));
end;
architecture r of pcreg is
  signal r : unsigned(3 downto 0);
begin
  q <= r;
  process (clk) begin
    if rising_edge(clk) then
      r <= d;
    end if;
  end process;
end;
entity inc is
  port (a : in unsigned(3 downto 0); y : out unsigned(3 downto 0));
end;
architecture r of inc is
begin
  y <= a + 1;
end;
entity top is end;
architecture s of top is
  signal insn : unsigned(15 downto 0);
  signal pc, pcn : unsigned(3 downto 0);
  signal px : unsigned(7 downto 0);
  attribute record_role : string;
  attribute record_role of imem : label is "instruction";
  attribute record_role of pcr : label is "pc";
begin
  imem : entity work.rom port map (a => pc, q => insn);
  pcr  : entity work.pcreg port map (clk => insn(0), d => pcn, q => pc);
  inc1 : entity work.inc port map (a => pc, y => pcn);
  parts : entity work.pass port map (a => insn(15 downto 8), q => px);
end;
`
	mdl, err := vhdl.Translate(src)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	// The instance label "parts" collides with an MDL keyword and gets
	// the _v suffix.
	if !strings.Contains(mdl, "parts_v") {
		t.Errorf("keyword-colliding label not renamed:\n%s", mdl)
	}
	if _, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
		t.Fatalf("translated model does not retarget: %v\n%s", err, mdl)
	}
}
